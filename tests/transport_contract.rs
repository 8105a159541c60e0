//! The `Transport` contract, written once and run on every transport.
//!
//! Each case is a rank program generic over `T: Transport` plus a verdict
//! over the per-rank results; [`contract!`] turns it into one `#[test]`
//! per runner, so `exchange_swaps_payloads::reactor` and
//! `exchange_swaps_payloads::virtual_time` execute the same body. That
//! includes the failure half: all three root transports receive through
//! the one `Mailbox`, so a silent peer is a `Timeout` and a finished one a
//! `PeerDisconnected` on each of them — in virtual time too, where the
//! watchdog runs on the wall clock and never touches the modelled one.
//!
//! What is specific to one transport stays with it: the α–β cost model in
//! `endpoint.rs`, the event loop's counters in `reactor.rs`, frames and
//! socket failures in `reactor_transport.rs`.

use std::time::Duration;

use bytes::Bytes;
use sparcml::net::{
    run_cluster, run_reactor_loopback_cluster, run_thread_cluster, CommError, CommStats, CostModel,
    Endpoint, ReactorTransport, ThreadTransport, Transport, TransportConfig,
};

// ---------------------------------------------------------------------------
// Runners: one signature, `(ranks, program) -> per-rank results`
// ---------------------------------------------------------------------------

fn virtual_time<R: Send>(p: usize, f: impl Fn(&mut Endpoint) -> R + Sync) -> Vec<R> {
    run_cluster(p, CostModel::zero(), f)
}

fn threads<R: Send>(p: usize, f: impl Fn(&mut ThreadTransport) -> R + Sync) -> Vec<R> {
    run_thread_cluster(p, f)
}

fn reactor<R: Send>(p: usize, f: impl Fn(&mut ReactorTransport) -> R + Sync) -> Vec<R> {
    run_reactor_loopback_cluster(p, CostModel::zero(), TransportConfig::default(), f)
}

/// The receive watchdog of the `*_short_watchdog` runners.
const WATCHDOG: Duration = Duration::from_millis(100);

fn virtual_short_watchdog<R: Send>(p: usize, f: impl Fn(&mut Endpoint) -> R + Sync) -> Vec<R> {
    run_cluster(p, CostModel::zero(), |ep| {
        ep.set_recv_deadline(WATCHDOG);
        f(ep)
    })
}

fn threads_short_watchdog<R: Send>(
    p: usize,
    f: impl Fn(&mut ThreadTransport) -> R + Sync,
) -> Vec<R> {
    run_thread_cluster(p, |tp| {
        tp.set_recv_deadline(WATCHDOG);
        f(tp)
    })
}

fn reactor_short_watchdog<R: Send>(
    p: usize,
    f: impl Fn(&mut ReactorTransport) -> R + Sync,
) -> Vec<R> {
    let config = TransportConfig::default().with_recv_timeout(WATCHDOG);
    run_reactor_loopback_cluster(p, CostModel::zero(), config, f)
}

/// One contract case: runs the rank program `$case` on `$p` ranks of each
/// listed runner and hands the per-rank results to `$verdict`.
macro_rules! contract {
    ($case:ident on [$($runner:ident),+], $p:expr, $verdict:expr) => {
        mod $case {
            // The verdict expands here and names the file's imports.
            #[allow(unused_imports)]
            use super::*;

            $(
                #[test]
                fn $runner() {
                    ($verdict)(super::$runner($p, |tp| super::$case(tp)));
                }
            )+
        }
    };
}

// ---------------------------------------------------------------------------
// The contract, on every transport
// ---------------------------------------------------------------------------

fn exchange_swaps_payloads<T: Transport>(tp: &mut T) -> usize {
    let peer = tp.rank() ^ 1;
    let got = tp
        .exchange(peer, 7, Bytes::from(vec![tp.rank() as u8]))
        .unwrap();
    got[0] as usize
}
contract!(
    exchange_swaps_payloads on [virtual_time, threads, reactor],
    4,
    |got: Vec<usize>| assert_eq!(got, vec![1, 0, 3, 2])
);

fn tags_match_out_of_order<T: Transport>(tp: &mut T) -> Vec<Bytes> {
    if tp.rank() == 0 {
        tp.send(1, 10, Bytes::from_static(b"ten")).unwrap();
        tp.send(1, 20, Bytes::from_static(b"twenty")).unwrap();
        Vec::new()
    } else {
        // Ask for tag 20 first although tag 10 arrives first.
        let a = tp.recv(0, 20).unwrap();
        let b = tp.recv(0, 10).unwrap();
        vec![a, b]
    }
}
contract!(
    tags_match_out_of_order on [virtual_time, threads, reactor],
    2,
    |got: Vec<Vec<Bytes>>| {
        assert_eq!(got[1][0].as_ref(), b"twenty");
        assert_eq!(got[1][1].as_ref(), b"ten");
    }
);

fn self_send_loops_back<T: Transport>(tp: &mut T) -> u8 {
    let rank = tp.rank();
    tp.send(rank, 3, Bytes::from(vec![rank as u8 + 40]))
        .unwrap();
    tp.recv(rank, 3).unwrap()[0]
}
contract!(
    self_send_loops_back on [virtual_time, threads, reactor],
    2,
    |got: Vec<u8>| assert_eq!(got, vec![40, 41])
);

fn recv_any_returns_buffered_lowest_rank_first<T: Transport>(tp: &mut T) -> Vec<usize> {
    if tp.rank() == 2 {
        // A pair's messages arrive in send order, so once each sender's
        // tag-11 message is in, its tag-9 message is already buffered —
        // whichever sender was faster.
        for peer in [1, 0] {
            let _ = tp.recv(peer, 11).unwrap();
        }
        let (a, _) = tp.recv_any(9).unwrap();
        let (b, _) = tp.recv_any(9).unwrap();
        for peer in [a, b] {
            tp.send(peer, 10, Bytes::new()).unwrap();
        }
        vec![a, b]
    } else {
        tp.send(2, 9, Bytes::from(vec![tp.rank() as u8])).unwrap();
        tp.send(2, 11, Bytes::new()).unwrap();
        // Wait for an ack so neither sender exits before rank 2 drained
        // both messages.
        let _ = tp.recv(2, 10).unwrap();
        Vec::new()
    }
}
contract!(
    recv_any_returns_buffered_lowest_rank_first on [virtual_time, threads, reactor],
    3,
    |got: Vec<Vec<usize>>| assert_eq!(got[2], vec![0, 1])
);

fn invalid_rank_is_rejected<T: Transport>(tp: &mut T) -> [Result<(), CommError>; 2] {
    [tp.send(9, 0, Bytes::new()), tp.recv(9, 0).map(|_| ())]
}
contract!(
    invalid_rank_is_rejected on [virtual_time, threads, reactor],
    2,
    |got: Vec<[Result<(), CommError>; 2]>| {
        for outcome in got.iter().flatten() {
            assert_eq!(outcome, &Err(CommError::InvalidRank { rank: 9, size: 2 }));
        }
    }
);

fn stats_and_clock_account<T: Transport>(tp: &mut T) -> CommStats {
    let peer = 1 - tp.rank();
    tp.send(peer, 1, Bytes::from(vec![0u8; 16])).unwrap();
    let _ = tp.recv(peer, 1).unwrap();
    tp.charge_seconds(1.0);
    assert!(tp.clock() >= 1.0, "charged seconds must show in the clock");
    tp.compute(10);
    tp.stats().clone()
}
contract!(
    stats_and_clock_account on [virtual_time, threads, reactor],
    2,
    |got: Vec<CommStats>| {
        for s in got {
            assert_eq!((s.msgs_sent, s.bytes_sent), (1, 16));
            assert_eq!((s.msgs_recv, s.bytes_recv), (1, 16));
            assert_eq!(s.compute_elements, 10);
        }
    }
);

fn op_ids_are_one_sequence<T: Transport>(tp: &mut T) -> (u64, u64) {
    (tp.next_op_id(), tp.next_op_id())
}
contract!(
    op_ids_are_one_sequence on [virtual_time, threads, reactor],
    2,
    |got: Vec<(u64, u64)>| assert_eq!(got, vec![(1, 2), (1, 2)])
);

fn detach_leaves_placeholder<T: Transport>(tp: &mut T) -> ((usize, usize), usize) {
    let real = tp.detach();
    let placeholder = (tp.rank(), tp.size());
    *tp = real;
    (placeholder, tp.rank())
}
contract!(
    detach_leaves_placeholder on [virtual_time, threads, reactor],
    2,
    |got: Vec<((usize, usize), usize)>| assert_eq!(got[1], ((0, 1), 1))
);

fn large_simultaneous_exchange_does_not_deadlock<T: Transport>(tp: &mut T) -> bool {
    // Both sides send multi-megabyte frames before either receives: a
    // send that blocked until the peer read would deadlock once the
    // kernel buffers fill.
    let payload_len = 8 << 20;
    let peer = 1 - tp.rank();
    let payload = Bytes::from(vec![tp.rank() as u8; payload_len]);
    let got = tp.exchange(peer, 77, payload).unwrap();
    got.len() == payload_len && got.iter().all(|&b| b as usize == peer)
}
contract!(
    large_simultaneous_exchange_does_not_deadlock on [virtual_time, threads, reactor],
    2,
    |got: Vec<bool>| assert_eq!(got, vec![true, true])
);

// ---------------------------------------------------------------------------
// A lost peer is a typed error: silent ⇒ Timeout, gone ⇒ PeerDisconnected
// ---------------------------------------------------------------------------

fn silent_peer_trips_the_watchdog<T: Transport>(tp: &mut T) -> Option<CommError> {
    if tp.rank() == 0 {
        // Rank 1 is alive but never sends on this tag.
        let err = tp.recv(1, 42).unwrap_err();
        tp.send(1, 1, Bytes::from_static(b"done")).unwrap();
        Some(err)
    } else {
        // Stay alive until rank 0's watchdog has fired, however many of
        // our own that takes: a timed-out receive leaves the session
        // usable.
        loop {
            match tp.recv(0, 1) {
                Ok(_) => return None,
                Err(CommError::Timeout { .. }) => {}
                Err(e) => panic!("rank 1 lost rank 0: {e}"),
            }
        }
    }
}
contract!(
    silent_peer_trips_the_watchdog on
        [virtual_short_watchdog, threads_short_watchdog, reactor_short_watchdog],
    2,
    |got: Vec<Option<CommError>>| {
        let err = got[0].as_ref().expect("rank 0 reports its error");
        match err {
            CommError::Timeout { peer: 1, waited } => assert!(*waited >= WATCHDOG),
            other => panic!("expected a Timeout on rank 1, got {other:?}"),
        }
    }
);

fn finished_peer_fails_the_receive<T: Transport>(tp: &mut T) -> Option<CommError> {
    // Rank 0 returns at once and its session ends; rank 1 waits on it.
    // The end of a session is observable on every link (a socket's FIN, a
    // dropped channel mesh's close notice): no need to wait the default
    // 30 s watchdog out.
    (tp.rank() == 1).then(|| tp.recv(0, 5).unwrap_err())
}
contract!(
    finished_peer_fails_the_receive on [virtual_time, threads, reactor],
    2,
    |got: Vec<Option<CommError>>| {
        assert_eq!(got[1], Some(CommError::PeerDisconnected { peer: 0 }))
    }
);
