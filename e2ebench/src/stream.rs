//! The `churn` and `scale` workloads: one Table-1 burst trace streamed
//! event by event through the real update path, closed loop.
//!
//! Per event: UPDATE encode/decode on the wire → `apply_update_delta` →
//! forced reoptimize if the fast path degraded → convergence probe (sync
//! the viewer's router for the prefix, forward one policy-neutral probe
//! through the fabric, check it reaches the participant the route server
//! selected). Between events, by virtual deadline: a background reoptimize
//! (plus resync of every traffic-source router) and a replay batch from the
//! traffic-source routers through the sharded data plane.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sdx_bgp::wire::{self, Message};
use sdx_churn::{sync_prefix, Activity, EventQueue};
use sdx_core::{ParticipantId, SdxRuntime};
use sdx_ip::Prefix;
use sdx_policy::{Field, Packet};
use sdx_switch::{BatchOutput, BorderRouter};
use sdx_workload::{stream_trace, TraceConfig, TraceEvent};

use crate::fabric::{self, Fabric, BATCH};
use crate::stats::{whole_us, LayerCounts, Outcome};
use crate::trace::Tracer;

/// Virtual seconds between background reoptimizes.
pub const REOPTIMIZE_INTERVAL_S: u64 = 1_800;
/// Virtual seconds between replay batches.
pub const REPLAY_INTERVAL_S: u64 = 60;
/// Virtual seconds of trace one replica replays: four reoptimize periods.
/// Short replicas, many per run, let a median over them ignore the spells
/// in which a shared host runs this process faster or slower.
pub const WINDOW_S: u64 = 2 * 3_600;

/// Probe source: outside every announced prefix and above the well-known
/// ports, so no policy clause deflects it (the `ChurnEngine` probe).
const PROBE_SRC: std::net::Ipv4Addr = std::net::Ipv4Addr::new(203, 0, 113, 9);

/// The trace: a week of virtual time, far more than one window.
pub fn trace_config() -> TraceConfig {
    TraceConfig {
        duration_s: 604_800,
        ..TraceConfig::default()
    }
}

/// Seed of the update trace. Like the exchange, the trace is fixed: its
/// burst sizes are heavy-tailed, so trace events per virtual hour differ by
/// ~18% between seeds over one run, which would swamp `updates_per_s`.
pub const TRACE_SEED: u64 = 11;

/// What one streamed run measured.
#[derive(Debug, Default)]
pub struct StreamRun {
    /// Trace events handled.
    pub events: u64,
    /// Wall time of the event loop (updates, probes, replay, reoptimizes,
    /// resyncs), correctness gates excluded.
    pub loop_wall: Duration,
    /// Per converged event: UPDATE decode start → probe delivered, µs.
    pub converge_us: Vec<u64>,
    /// Per reoptimize: reoptimize + resync of every traffic-source router, µs.
    pub reoptimize_us: Vec<u64>,
    /// Per replay batch: `process_batch_into` wall time, µs.
    pub batch_us: Vec<u64>,
    /// Replay wall time through router + fabric.
    pub forward_wall: Duration,
    /// Events attempted / failed (probe never delivered, or delta denied).
    pub outcome: Outcome,
    /// Probes never delivered after one forced reoptimize.
    pub undelivered: u64,
    /// Events with a denied delta.
    pub denied_events: u64,
    /// Forced reoptimizes.
    pub forced: u64,
    /// Layer counters: the loop's `IncrementalStats` deltas, summed
    /// `CompileStats` of the reoptimizes, resync routes, replay packets.
    pub counts: LayerCounts,
    /// Decoded UPDATEs that differed from their source.
    pub wire_mismatches: u64,
    /// Flow-table rules just before each periodic reoptimize: the table
    /// the fast path grew since the previous one.
    pub table_rules: Vec<u64>,
}

/// The streaming loop's state.
struct Streamer<'a> {
    fab: &'a mut Fabric,
    tr: &'a mut Tracer,
    flows: &'a [(usize, Packet)],
    probe_routers: BTreeMap<ParticipantId, BorderRouter>,
    frames: Vec<Packet>,
    out: BatchOutput,
    last_generation: u64,
    gate: Duration,
    run: StreamRun,
}

/// Stream the first `window_s` virtual seconds of the trace through `fab`,
/// recording spans in `tr` (when on).
pub fn run(
    fab: &mut Fabric,
    flows: &[(usize, Packet)],
    window_s: u64,
    tr: &mut Tracer,
) -> StreamRun {
    let start_stats = fab.runtime.incremental_stats();
    let last_generation = fab.runtime.switch().generation();
    let mut s = Streamer {
        fab,
        tr,
        flows,
        probe_routers: BTreeMap::new(),
        frames: Vec::with_capacity(BATCH),
        out: BatchOutput::new(),
        last_generation,
        gate: Duration::ZERO,
        run: StreamRun::default(),
    };

    let mut stream = stream_trace(&s.fab.topology, trace_config(), TRACE_SEED);
    let mut pending = stream.next();
    let mut queue = EventQueue::new();
    queue.push(REPLAY_INTERVAL_S, Activity::Replay);
    queue.push(REOPTIMIZE_INTERVAL_S, Activity::Reoptimize);
    let (mut replays, mut periodic) = (0u64, 0u64);

    let start = Instant::now();
    while let Some(at_s) = pending.as_ref().map(|e| e.at_s).filter(|t| *t < window_s) {
        while queue.peek_at().is_some_and(|t| t <= at_s) {
            let (t, activity) = queue.pop().expect("peeked");
            match activity {
                Activity::Replay => {
                    s.replay(replays);
                    replays += 1;
                    queue.push(t + REPLAY_INTERVAL_S, Activity::Replay);
                }
                Activity::Reoptimize => {
                    let rules = s.fab.runtime.switch().total_rules();
                    s.run.table_rules.push(rules as u64);
                    let root = s.tr.open("reoptimize", periodic);
                    s.reoptimize(false, periodic);
                    s.tr.close(root);
                    periodic += 1;
                    queue.push(t + REOPTIMIZE_INTERVAL_S, Activity::Reoptimize);
                }
            }
        }
        let event = pending.take().expect("peeked");
        s.handle(event);
        pending = stream.next();
    }
    s.run.loop_wall = start.elapsed().saturating_sub(s.gate);

    let end = s.fab.runtime.incremental_stats();
    let c = &mut s.run.counts;
    c.rules_installed = end.delta_installed - start_stats.delta_installed;
    c.rules_removed = end.delta_removed - start_stats.delta_removed;
    c.check_us = end.delta_check_us - start_stats.delta_check_us;
    c.checked = end.delta_checked - start_stats.delta_checked;
    c.structural = end.delta_structural - start_stats.delta_structural;
    c.denied = end.delta_denied - start_stats.delta_denied;
    if s.run.table_rules.is_empty() {
        s.run
            .table_rules
            .push(s.fab.runtime.switch().total_rules() as u64);
    }
    s.run
}

impl Streamer<'_> {
    /// One trace event, from UPDATE decode to the converged probe.
    fn handle(&mut self, event: TraceEvent) {
        let id = self.run.events;
        self.run.events += 1;
        let root = self.tr.open("event", id);
        let start = Instant::now();

        let sent = Message::Update(event.update.clone());
        let received = self.tr.span("bgp.wire", id, || {
            let bytes = wire::encode(&sent);
            wire::decode(&bytes)
                .ok()
                .filter(|(_, n)| *n == bytes.len())
                .map(|(m, _)| m)
        });
        // A message that fails to round-trip fails the wire gate below; the
        // source update keeps the loop going meanwhile.
        let update = match &received {
            Some(Message::Update(u)) => u,
            _ => &event.update,
        };

        let runtime = &mut self.fab.runtime;
        let denied_before = runtime.incremental_stats().delta_denied;
        let (touched, _) = self.tr.span("core.update", id, || {
            runtime.apply_update_delta(event.from, update)
        });
        let denied = runtime.incremental_stats().delta_denied > denied_before;

        // The fast path degraded: recover now, as the ChurnEngine does.
        if self.fab.runtime.needs_reoptimize() {
            self.reoptimize(true, id);
        }

        // Convergence probe on the first touched prefix that still has a
        // best route (a pure withdrawal has no positive probe).
        let target = self.target(&touched, id);
        let mut undelivered = false;
        if let Some((prefix, viewer, receiver)) = target {
            let mut delivered = self.probe(prefix, viewer, receiver, id);
            if !delivered {
                // Escalate once: force the background stage, re-derive the
                // receiver, re-probe.
                self.reoptimize(true, id);
                delivered = match self.target(&[prefix], id) {
                    Some((p, v, r)) => self.probe(p, v, r, id),
                    None => false,
                };
            }
            if delivered {
                self.run.converge_us.push(whole_us(start.elapsed()));
            } else {
                undelivered = true;
            }
        }
        self.tr.close(root);

        self.run.undelivered += u64::from(undelivered);
        self.run.denied_events += u64::from(denied);
        self.run.outcome.record(&[undelivered, denied]);

        // Wire gate, off the loop clock.
        let g = Instant::now();
        if received.as_ref() != Some(&sent) {
            self.run.wire_mismatches += 1;
        }
        self.gate += g.elapsed();
    }

    /// The first of `prefixes` with a probe target: (prefix, viewer,
    /// expected receiver), where the viewer is the first physical
    /// participant that neither announces the prefix nor lacks a route.
    fn target(
        &mut self,
        prefixes: &[Prefix],
        id: u64,
    ) -> Option<(Prefix, ParticipantId, ParticipantId)> {
        let runtime = &self.fab.runtime;
        self.tr.span("bgp.best_route", id, || {
            let rs = runtime.route_server();
            prefixes.iter().find_map(|prefix| {
                runtime
                    .participants()
                    .filter(|p| p.is_physical())
                    .find_map(|p| {
                        if rs.route_from(p.id.peer(), prefix).is_some() {
                            return None;
                        }
                        rs.best_route(prefix, p.id.peer())
                            .map(|best| (*prefix, p.id, ParticipantId::from(best.peer)))
                    })
            })
        })
    }

    /// Sync `viewer`'s router for `prefix`, push one probe through the
    /// fabric; true when a copy reaches `receiver`.
    fn probe(
        &mut self,
        prefix: Prefix,
        viewer: ParticipantId,
        receiver: ParticipantId,
        id: u64,
    ) -> bool {
        let runtime = &mut self.fab.runtime;
        let routers = &mut self.probe_routers;
        let frame = self.tr.span("churn.sync_prefix", id, || {
            let port = runtime
                .participants()
                .find(|p| p.id == viewer)
                .and_then(|p| p.ports.first().copied())?;
            let router = routers
                .entry(viewer)
                .or_insert_with(|| BorderRouter::new(port.port, port.mac, port.ip));
            sync_prefix(runtime, viewer, router, prefix);
            fabric::router_frame(runtime, router, &probe_packet(prefix))
        });
        let Some(frame) = frame else { return false };
        self.tr.span("switch.probe", id, || {
            runtime
                .process_packet(&frame)
                .iter()
                .any(|(port, _)| runtime.port_owner(*port) == Some(receiver))
        })
    }

    /// Background reoptimize, then resync every traffic-source router so it
    /// tags with the new VMACs.
    fn reoptimize(&mut self, forced: bool, id: u64) {
        let start = Instant::now();
        let runtime = &mut self.fab.runtime;
        let stats = self
            .tr
            .span("core.reoptimize", id, || runtime.reoptimize())
            .expect("reoptimize of a compiled exchange succeeds");
        let call_us = whole_us(start.elapsed());
        let sources = &mut self.fab.sources;
        let routes: usize = self.tr.span("core.sync_router", id, || {
            sources.iter_mut().map(|s| s.resync(runtime)).sum()
        });
        self.run.reoptimize_us.push(whole_us(start.elapsed()));

        let c = &mut self.run.counts;
        c.reoptimizes += 1;
        c.compile_us += stats.duration_us;
        c.fec_us += stats.stages.fec_us;
        c.stage1_us += stats.stages.stage1_us;
        c.stage2_us += stats.stages.stage2_us;
        c.compose_us += stats.stages.compose_us;
        c.install_us += call_us.saturating_sub(stats.duration_us);
        c.sync_routes += routes as u64;
        self.run.forced += u64::from(forced);
        // Every VMAC binding changed: cached probe-router state is stale.
        self.probe_routers.clear();
    }

    /// One replay batch: the traffic-source routers emit their flows and
    /// the sharded data plane forwards them.
    fn replay(&mut self, id: u64) {
        let root = self.tr.open("replay", id);
        let start = Instant::now();
        let runtime = &mut self.fab.runtime;
        let (sources, flows, frames) = (&mut self.fab.sources, self.flows, &mut self.frames);
        self.tr.span("switch.router_forward", id, || {
            fabric::emit(runtime, sources, flows, frames)
        });
        let moved = runtime.switch().generation() != self.last_generation;
        let out = &mut self.out;
        let b = Instant::now();
        self.tr.span("switch.batch", id, || {
            runtime.process_batch_into(frames, out)
        });
        self.run.batch_us.push(whole_us(b.elapsed()));
        self.run.forward_wall += start.elapsed();
        self.last_generation = runtime.switch().generation();
        self.run.counts.republish += u64::from(moved);
        self.run.counts.packets += frames.len() as u64;
        self.tr.close(root);
    }
}

/// The policy-neutral probe for `prefix`.
fn probe_packet(prefix: Prefix) -> Packet {
    Packet::new()
        .with(Field::EthType, 0x0800u16)
        .with(Field::IpProto, 1u8)
        .with(Field::SrcIp, PROBE_SRC)
        .with(Field::DstIp, prefix.first_addr())
        .with(Field::SrcPort, 40_000u16)
        .with(Field::DstPort, 33_434u16)
}

/// Streamed ≡ batch: replay the first `events` trace events straight into
/// a fresh exchange's RIB, compile once, and compare forwarding
/// fingerprints with the streamed runtime.
pub fn batch_oracle(streamed: &mut SdxRuntime, shape: fabric::Shape, events: u64) -> (u64, u64) {
    let (mut batch, topology) = fabric::generate(shape);
    let take = usize::try_from(events).expect("event count fits usize");
    for e in stream_trace(&topology, trace_config(), TRACE_SEED).take(take) {
        batch.apply_update(e.from, &e.update);
    }
    batch.compile().expect("batch recompile succeeds");
    let batch_fp = sdx_churn::forwarding_fingerprint(&mut batch, &topology, 4);
    let streamed_fp = sdx_churn::forwarding_fingerprint(streamed, &topology, 4);
    (streamed_fp, batch_fp)
}
