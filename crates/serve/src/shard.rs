//! Sharded server groups.
//!
//! A [`ShardGroup`] starts one [`Server`] per shard, each owning
//! `partition_range(dim, shards, shard)` of every model's index space.
//! Clients split each contribution by those same ranges and send one
//! slice to every shard, so shard generations advance in lock step.
//!
//! The shards also talk to *each other*: every shard runs a sync thread
//! holding one rank of an intra-process [`ThreadTransport`] cluster,
//! wrapped in a group-scoped communicator via [`Communicator::split`].
//! On request (or on a configured interval) all shards allgather their
//! per-model generation tables, so every shard's health endpoint can
//! report the cluster-wide view — and the inter-shard transport's own
//! [`CommStats`] fold into each shard's reported counters.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sparcml_core::Communicator;
use sparcml_net::ThreadTransport;
use sparcml_stream::SparseStream;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::server::{Server, ServerHandle, Shared};
use crate::state::Gauges;

/// A group of shard servers with an inter-shard sync channel.
pub struct ShardGroup {
    handles: Vec<ServerHandle>,
    sync_triggers: Vec<Sender<()>>,
    sync_acks: Vec<Receiver<()>>,
    sync_threads: Vec<JoinHandle<()>>,
    interval_thread: Option<(Sender<()>, JoinHandle<()>)>,
}

impl ShardGroup {
    /// Starts `shards` servers on loopback with OS-assigned ports, plus
    /// one generation-sync thread per shard.
    pub fn start(cfg: ServeConfig, shards: u16) -> Result<ShardGroup, ServeError> {
        if shards == 0 {
            return Err(ServeError::Protocol(
                "a shard group needs >= 1 shard".into(),
            ));
        }
        let mut handles = Vec::with_capacity(shards as usize);
        for shard in 0..shards {
            handles.push(Server::start_shard(
                cfg.clone(),
                shard,
                shards,
                "127.0.0.1:0",
                "127.0.0.1:0",
            )?);
        }

        // Inter-shard cluster: one ThreadTransport rank per shard, all
        // entering the (collective) split concurrently on their own sync
        // threads.
        let transports = ThreadTransport::connect(shards as usize);
        let mut sync_triggers = Vec::with_capacity(shards as usize);
        let mut sync_acks = Vec::with_capacity(shards as usize);
        let mut sync_threads = Vec::with_capacity(shards as usize);
        for (handle, transport) in handles.iter().zip(transports) {
            let (trigger_tx, trigger_rx) = channel::<()>();
            let (ack_tx, ack_rx) = channel::<()>();
            let shared = handle.shared.clone();
            sync_triggers.push(trigger_tx);
            sync_acks.push(ack_rx);
            sync_threads.push(std::thread::spawn(move || {
                sync_thread(transport, shared, trigger_rx, ack_tx)
            }));
        }

        let interval_thread = cfg.shard_sync_interval.map(|interval| {
            let triggers = sync_triggers.clone();
            let (stop_tx, stop_rx) = channel::<()>();
            let handle = std::thread::spawn(move || loop {
                match stop_rx.recv_timeout(interval) {
                    // A stop message or a dropped sender both mean "stop".
                    Ok(()) => return,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        // Trigger every shard together — the sync is a
                        // collective, so no shard may enter it alone.
                        for t in &triggers {
                            let _ = t.send(());
                        }
                    }
                }
            });
            (stop_tx, handle)
        });

        Ok(ShardGroup {
            handles,
            sync_triggers,
            sync_acks,
            sync_threads,
            interval_thread,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Per-shard server handles (index = shard id).
    pub fn handles(&self) -> &[ServerHandle] {
        &self.handles
    }

    /// Session addresses in shard order — what [`crate::ServeClient`]
    /// connects to.
    pub fn addrs(&self) -> Vec<std::net::SocketAddr> {
        self.handles.iter().map(|h| h.addr()).collect()
    }

    /// Runs one generation allgather across every shard and waits for
    /// all of them to finish. Because the allgather is collective, all
    /// shards are triggered before any ack is awaited.
    pub fn sync_now(&self) -> Result<(), ServeError> {
        // Interval-driven syncs ack into the same channels; drain stale
        // acks so this call waits on its own round.
        for ack in &self.sync_acks {
            while ack.try_recv().is_ok() {}
        }
        for t in &self.sync_triggers {
            t.send(()).map_err(|_| ServeError::Disconnected {
                detail: "shard sync thread exited".into(),
            })?;
        }
        for ack in &self.sync_acks {
            ack.recv_timeout(Duration::from_secs(30))
                .map_err(|_| ServeError::Timeout)?;
        }
        Ok(())
    }

    /// Stops the sync threads, then shuts every shard server down.
    pub fn shutdown(mut self) {
        if let Some((stop, handle)) = self.interval_thread.take() {
            let _ = stop.send(());
            drop(stop);
            let _ = handle.join();
        }
        self.sync_triggers.clear(); // dropping the senders stops the sync threads
        for t in self.sync_threads.drain(..) {
            let _ = t.join();
        }
        for h in self.handles.drain(..) {
            h.shutdown();
        }
    }
}

/// One shard's sync loop: enter the collective split, then serve
/// generation allgathers until the trigger channel closes.
fn sync_thread(
    transport: ThreadTransport,
    shared: Arc<Shared>,
    trigger: Receiver<()>,
    ack: Sender<()>,
) {
    // `split` is itself a collective — every shard's thread reaches it
    // concurrently, which is exactly why the split happens here and not
    // on the thread that started the group.
    let mut comm = match Communicator::new(transport).split(0) {
        Ok(c) => c,
        Err(_) => return,
    };
    let models = shared.cfg.models.len();
    while trigger.recv().is_ok() {
        if shared.stop.load(Ordering::Acquire) {
            let _ = ack.send(());
            continue;
        }
        // Publish this shard's generation table as a dense f64 stream
        // (generations fit f64 exactly below 2^53) and gather everyone's.
        let table: Vec<f64> = {
            let states = shared.models.lock().expect("models lock");
            states.iter().map(|m| m.generation as f64).collect()
        };
        let stream = SparseStream::from_dense(table);
        let gathered = comm.allgather(&stream).launch().and_then(|h| h.wait());
        if let Ok(tables) = gathered {
            let cluster: Vec<Vec<u64>> = tables
                .into_iter()
                .map(|mut t| {
                    t.densify();
                    (0..models).map(|i| t.get(i as u32) as u64).collect()
                })
                .collect();
            *shared
                .cluster_generations
                .lock()
                .expect("cluster generations lock") = Some(cluster);
            *shared.comm_stats.lock().expect("comm stats lock") = comm.stats_snapshot();
            // Telemetry exchange rides the same collective cadence: every
            // shard's sync thread reaches it after a successful gather, so
            // the cluster_report collective stays in lockstep.
            if let Ok(report) = comm.cluster_report() {
                *shared
                    .cluster_telemetry
                    .lock()
                    .expect("cluster telemetry lock") = Some(report);
            }
            Gauges::bump(&shared.gauges.shard_syncs, 1);
        }
        let _ = ack.send(());
    }
}
