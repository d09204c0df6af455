//! The `forward` workload: the scale exchange compiled once, no BGP
//! changes. The traffic-source border routers emit 512-packet batches (FIB
//! lookup, ARP, VMAC tag) into the parallel `process_batch_into` on two
//! shards, closed loop: each batch waits for the previous one.

use std::time::{Duration, Instant};

use sdx_policy::Packet;
use sdx_switch::BatchOutput;

use crate::fabric::{self, Fabric};
use crate::stats::{whole_us, LayerCounts, Outcome};
use crate::trace::Tracer;

/// Packets per batch. Large enough that handing half a batch to the second
/// shard's thread is a small part of its time: with 512-packet batches a
/// busy spell on a shared host tripled batch time, with 4 096 it did not.
pub const BATCH: usize = 4_096;
/// Distinct batches the flows are cut into; the loop cycles over them.
pub const DISTINCT_BATCHES: usize = 8;

/// What one forwarding run measured.
#[derive(Debug, Default)]
pub struct ForwardRun {
    /// Batches sent.
    pub batches: u64,
    /// Wall time of the loop.
    pub loop_wall: Duration,
    /// Per batch: `process_batch_into` wall time, µs.
    pub batch_us: Vec<u64>,
    /// Flows attempted / failed (no route at the router, or no egress).
    pub outcome: Outcome,
    /// Layer counters: packets the routers put into the fabric, batches
    /// that found the switch generation moved.
    pub counts: LayerCounts,
    /// Flow-table rules.
    pub table_rules: u64,
}

/// Forward `batches` batches of `flows`, cycling over them.
pub fn run(
    fab: &mut Fabric,
    flows: &[(usize, Packet)],
    batches: u64,
    tr: &mut Tracer,
) -> ForwardRun {
    let mut run = ForwardRun::default();
    let mut frames = Vec::with_capacity(BATCH);
    let mut out = BatchOutput::new();
    let mut last_generation = fab.runtime.switch().generation();
    let chunks: Vec<&[(usize, Packet)]> = flows.chunks(BATCH).collect();

    let start = Instant::now();
    for id in 0..batches {
        let batch = chunks[(id as usize) % chunks.len()];
        let root = tr.open("batch", id);
        let runtime = &mut fab.runtime;
        let sources = &mut fab.sources;
        let no_route = tr.span("switch.router_forward", id, || {
            fabric::emit(runtime, sources, batch, &mut frames)
        });
        let moved = runtime.switch().generation() != last_generation;
        let b = Instant::now();
        tr.span("switch.batch", id, || {
            runtime.process_batch_into(&frames, &mut out)
        });
        run.batch_us.push(whole_us(b.elapsed()));
        last_generation = runtime.switch().generation();
        run.counts.republish += u64::from(moved);
        let no_egress = out.iter().filter(|e| e.is_empty()).count() as u64;
        run.outcome
            .record_many(batch.len() as u64, no_route + no_egress);
        run.counts.packets += frames.len() as u64;
        tr.close(root);
    }
    run.loop_wall = start.elapsed();
    run.batches = batches;
    run.table_rules = fab.runtime.switch().total_rules() as u64;
    run
}

/// Sharded ≡ single-shard: every distinct batch forwarded on
/// [`fabric::SHARDS`] shards and on one shard must give the same digest of
/// egress ports and emitted headers. Returns the two digests.
pub fn shard_oracle(fab: &mut Fabric, flows: &[(usize, Packet)]) -> (u64, u64) {
    let mut frames = Vec::new();
    let mut out = BatchOutput::new();
    let mut digests = [0u64; 2];
    for (digest, shards) in digests.iter_mut().zip([fabric::SHARDS, 1]) {
        fab.runtime.set_dataplane_threads(shards);
        let mut h = Fnv::default();
        for batch in flows.chunks(BATCH) {
            fabric::emit(&fab.runtime, &mut fab.sources, batch, &mut frames);
            fab.runtime.process_batch_into(&frames, &mut out);
            for emissions in out.iter() {
                h.mix(emissions.len() as u64 + 1);
                for (egress, pkt) in emissions {
                    h.mix(u64::from(*egress));
                    for (field, value) in pkt.iter() {
                        h.mix(*field as u64 + 1);
                        h.mix(*value);
                    }
                }
            }
        }
        *digest = h.0;
    }
    fab.runtime.set_dataplane_threads(fabric::SHARDS);
    (digests[0], digests[1])
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}
