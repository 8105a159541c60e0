//! Dead ranks against every allreduce schedule, on the two transports
//! where a dead rank needs no sockets (`transport_contract.rs` pins the
//! receive rule itself on all three): every `Algorithm::ALL` member and
//! `Auto`, P ∈ {2, 3, 5, 8}, integer inputs so every summation order gives
//! the same bits. Either the last rank never joins, or its n-th send
//! fails (n ∈ 0..6) and it drops out. Both transports plan on the Aries
//! model, where these small inputs make `Auto` eager; a third matrix gives
//! `Auto` inputs whose k picks a split schedule, so every rank speculates
//! and the victim dies with its split frames in flight; a fourth kills it
//! in pinned `SSAR_Split_allgather` just after it announced its partition's
//! entry count to every peer.
//!
//! Asserted is the half of ROADMAP aim 3 that holds: nobody hangs (a
//! finished session is a disconnect, not 30 s of silence), a rank that
//! cannot finish returns a typed `CollError`, and a rank that returns `Ok`
//! holds the reference sum. Not asserted, only counted (`divergent`): a
//! rank that had all it needed before the victim died finishes while its
//! neighbours fail — recursive doubling at P=8, victim dead after one
//! send: ranks 0/2/4/6 hold the full sum, 1/3/5 error.

use std::time::{Duration, Instant};

use bytes::Bytes;
use sparcml::core::reference::reference_sum;
use sparcml::core::{select_algorithm, Algorithm, CollError, Communicator};
use sparcml::net::{
    run_cluster, run_thread_cluster, CommError, CommStats, CostModel, Endpoint, ThreadTransport,
    Transport,
};
use sparcml::stream::SparseStream;

const RANKS: [usize; 4] = [2, 3, 5, 8];
const DIM: usize = 512;

/// One faulted run's time limit; far below the 30 s watchdog.
const DEADLINE: Duration = Duration::from_secs(5);

fn algorithms() -> impl Iterator<Item = Algorithm> {
    Algorithm::ALL.into_iter().chain([Algorithm::Auto])
}

/// One collective to fault: a schedule and one input per rank.
type Case = (Algorithm, Vec<SparseStream<f32>>);

fn input(rank: usize) -> SparseStream<f32> {
    let pairs: Vec<(u32, f32)> = (0..24)
        .map(|i| {
            (
                ((rank * 29 + i * 13) % DIM) as u32,
                (1 + (rank + i) % 4) as f32,
            )
        })
        .collect();
    SparseStream::from_pairs(DIM, &pairs).unwrap()
}

/// What happens to the last rank.
#[derive(Debug, Clone, Copy)]
enum Fault {
    NeverJoins,
    FailsSend(usize),
}

/// What one rank reports: `None` if it never entered the collective.
type Outcome = Option<Result<SparseStream<f32>, CollError>>;
type Runner<T> = fn(usize, &(dyn Fn(&mut T) -> Outcome + Sync)) -> Vec<Outcome>;

fn virtual_time(p: usize, f: &(dyn Fn(&mut Endpoint) -> Outcome + Sync)) -> Vec<Outcome> {
    // The thread transport's planning model, so `Auto` picks alike on both.
    run_cluster(p, CostModel::aries(), f)
}

fn threads(p: usize, f: &(dyn Fn(&mut ThreadTransport) -> Outcome + Sync)) -> Vec<Outcome> {
    run_thread_cluster(p, f)
}

/// Forwards to `inner` until `sends_left` sends have gone out; the next
/// one fails instead of leaving.
struct FailingSends<T> {
    inner: T,
    sends_left: Option<usize>,
}

impl<T: Transport> FailingSends<T> {
    fn charge_send(&mut self) -> Result<(), CommError> {
        match &mut self.sends_left {
            Some(0) => Err(CommError::Io("injected send failure".into())),
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }
}

impl<T: Transport> Transport for FailingSends<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }
    fn clock(&self) -> f64 {
        self.inner.clock()
    }
    fn advance_clock_to(&mut self, t: f64) {
        self.inner.advance_clock_to(t)
    }
    fn charge_seconds(&mut self, seconds: f64) {
        self.inner.charge_seconds(seconds)
    }
    fn compute(&mut self, elements: usize) {
        self.inner.compute(elements)
    }
    fn next_op_id(&mut self) -> u64 {
        self.inner.next_op_id()
    }
    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
    fn stats_mut(&mut self) -> &mut CommStats {
        self.inner.stats_mut()
    }
    fn reset_clock(&mut self) {
        self.inner.reset_clock()
    }
    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        self.charge_send()?;
        self.inner.send(dst, tag, payload)
    }
    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        self.charge_send()?;
        self.inner.isend(dst, tag, payload)
    }
    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        self.inner.recv(src, tag)
    }
    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        self.inner.recv_any(tag)
    }
    fn detach(&mut self) -> Self {
        FailingSends {
            inner: self.inner.detach(),
            sends_left: self.sends_left,
        }
    }
}

/// Runs `algo` on this rank's input, failing its send number `fail_send`
/// if one is given. The session ends with the call, successful or not.
fn allreduce<T: Transport + Send + 'static>(
    tp: &mut T,
    algo: Algorithm,
    inputs: &[SparseStream<f32>],
    fail_send: Option<usize>,
) -> Result<SparseStream<f32>, CollError> {
    let mut comm = Communicator::new(FailingSends {
        inner: tp.detach(),
        sends_left: fail_send,
    });
    let rank = comm.rank();
    comm.allreduce(&inputs[rank])
        .algorithm(algo)
        .launch()
        .and_then(|h| h.wait())
}

/// Every schedule at every P, on the small inputs.
fn every_schedule() -> Vec<Case> {
    RANKS
        .into_iter()
        .flat_map(|p| algorithms().map(move |algo| (algo, (0..p).map(input).collect())))
        .collect()
}

/// `Auto` at every P where the Aries model has a split regime for an
/// N = 2^15 reduction: the first k on a 1/64 grid of N whose pick is
/// `SSAR_Split_allgather`, one index per
/// bucket of width N/k and integer values. P = 2 has none (its picks run
/// from recursive doubling straight to the dense baseline) and is
/// skipped.
fn auto_in_the_split_regime() -> Vec<Case> {
    let dim = 1 << 15;
    RANKS
        .into_iter()
        .filter_map(|p| {
            let k = (1..=32).map(|i| dim * i / 64).find(|&k| {
                select_algorithm::<f32>(p, dim, k, &CostModel::aries())
                    == Algorithm::SsarSplitAllgather
            });
            if k.is_none() {
                println!("P={p}: no split regime, skipped");
            }
            let width = dim / k?;
            let inputs = (0..p)
                .map(|rank| {
                    let pairs: Vec<(u32, f32)> = (0..dim / width)
                        .map(|j| {
                            let at = j * width + (rank + j) % width;
                            (at as u32, (1 + (rank + j) % 4) as f32)
                        })
                        .collect();
                    SparseStream::from_pairs(dim, &pairs).unwrap()
                })
                .collect();
            Some((Algorithm::Auto, inputs))
        })
        .collect()
}

/// Runs every case under each of `faults` and checks each run: back
/// within the deadline, every rank that joined reports, and every `Ok` is
/// the sum over *all* P inputs (so nobody can finish a collective the
/// last rank never joined). Returns how many ranks finished, how many
/// failed, and how many runs had both.
fn matrix<T: Transport + Send + 'static>(
    run: Runner<T>,
    cases: &[Case],
    faults: &[Fault],
) -> [usize; 3] {
    let (mut finished, mut failed, mut divergent) = (0, 0, 0);
    for ((algo, inputs), &fault) in cases
        .iter()
        .flat_map(|case| faults.iter().map(move |f| (case, f)))
    {
        let (algo, p) = (*algo, inputs.len());
        let expect = reference_sum(inputs);
        let what = format!("{algo:?} at P={p}, last rank {fault:?}");
        let started = Instant::now();
        let outs = run(p, &|tp: &mut T| match (tp.rank() == p - 1, fault) {
            (true, Fault::NeverJoins) => None,
            (true, Fault::FailsSend(n)) => Some(allreduce(tp, algo, inputs, Some(n))),
            (false, _) => Some(allreduce(tp, algo, inputs, None)),
        });
        let took = started.elapsed();
        assert!(took < DEADLINE, "{what}: took {took:?}");
        let (mut ok, mut err) = (0, 0);
        for (rank, out) in outs.into_iter().enumerate() {
            match out {
                Some(Ok(sum)) => {
                    assert_eq!(sum.to_dense_vec(), expect, "{what}: rank {rank} is wrong");
                    ok += 1;
                }
                Some(Err(_)) => err += 1,
                None => assert_eq!(rank, p - 1, "{what}: a survivor did not report"),
            }
        }
        finished += ok;
        failed += err;
        divergent += usize::from(ok > 0 && err > 0);
    }
    println!("{finished} Ok, {failed} Err, {divergent} runs with both");
    [finished, failed, divergent]
}

fn send_faults() -> Vec<Fault> {
    (0..6).map(Fault::FailsSend).collect()
}

fn last_rank_never_joins<T: Transport + Send + 'static>(run: Runner<T>) {
    let [finished, failed, _] = matrix(run, &every_schedule(), &[Fault::NeverJoins]);
    // Every survivor of every run: each schedule and `Auto` × Σ(P − 1).
    let schedules = algorithms().count();
    assert_eq!((finished, failed), (0, schedules * (1 + 2 + 4 + 7)));
}

fn last_rank_dies_after_n_sends<T: Transport + Send + 'static>(run: Runner<T>) {
    let [finished, failed, _] = matrix(run, &every_schedule(), &send_faults());
    // Every rank of every run reports, and both outcomes actually occur.
    let schedules = algorithms().count();
    assert_eq!(finished + failed, schedules * 6 * (2 + 3 + 5 + 8));
    assert!(finished > 0 && failed > 0, "{finished} Ok / {failed} Err");
}

fn last_rank_dies_mid_speculation<T: Transport + Send + 'static>(run: Runner<T>) {
    let cases = auto_in_the_split_regime();
    let sizes: Vec<usize> = cases.iter().map(|(_, inputs)| inputs.len()).collect();
    assert_eq!(sizes, [3, 5, 8], "the split regimes this matrix covers");
    let [finished, failed, _] = matrix(run, &cases, &send_faults());
    // The victim's first six sends are words and split frames of the
    // pass: every rank reports, and the victim itself fails every run.
    assert_eq!(finished + failed, 6 * (3 + 5 + 8));
    assert!(failed >= 3 * 6, "{finished} Ok / {failed} Err");
}

fn last_rank_dies_after_its_count_words<T: Transport + Send + 'static>(run: Runner<T>) {
    // Pinned `SSAR_Split_allgather`: the victim's first P − 1 sends are
    // its split frames, the next P − 1 the count words announcing its
    // partition; it dies on the allgather's first frame, so every peer
    // holds its count and waits for a block that never comes.
    for p in RANKS {
        let case = [(Algorithm::SsarSplitAllgather, (0..p).map(input).collect())];
        let [finished, failed, _] = matrix(run, &case, &[Fault::FailsSend(2 * (p - 1))]);
        assert_eq!(finished + failed, p, "P={p}");
        assert!(failed >= 1, "P={p}: {finished} Ok / {failed} Err");
    }
}

/// Instantiates one matrix on both transports.
macro_rules! fault {
    ($case:ident) => {
        mod $case {
            #[test]
            fn virtual_time() {
                super::$case(super::virtual_time)
            }

            #[test]
            fn threads() {
                super::$case(super::threads)
            }
        }
    };
}

fault!(last_rank_never_joins);
fault!(last_rank_dies_after_n_sends);
fault!(last_rank_dies_mid_speculation);
fault!(last_rank_dies_after_its_count_words);
