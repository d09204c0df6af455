//! Workload inputs and set-up: the exchange (topology, policies, compiled
//! runtime), the traffic-source border routers, and the flows they emit.
//!
//! The exchange of a workload is fixed, as an IXP's membership and policies
//! are: it is generated from [`EXCHANGE_SEED`]. The run's seed picks the
//! traffic sources and their flows. Re-drawing the exchange per seed would
//! swing the figures by more than any bound a regression check can use
//! (table rules by ~30% across seeds at 300 participants).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx_core::{AnalysisMode, CompileOptions, ParticipantId, PortConfig, SdxRuntime};
use sdx_ip::Prefix;
use sdx_policy::{Field, Packet};
use sdx_switch::{BorderRouter, Forward};
use sdx_workload::{generate_policies_with_groups, IxpProfile, IxpTopology, PolicyMix};

/// Data-plane shards: with the control-plane thread, the run fits two cores.
pub const SHARDS: usize = 2;
/// Compile worker threads.
pub const COMPILE_THREADS: usize = 1;
/// Border routers that emit replay / forward traffic. Each one is fully
/// resynced after every reoptimize, so the set size scales that cost.
pub const SOURCES: usize = 8;
/// Flows per replay batch in `churn` and `scale`.
pub const BATCH: usize = 512;
/// Seed of every workload's topology and policies.
pub const EXCHANGE_SEED: u64 = 11;

/// The size and policy shape of an exchange.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Participants.
    pub participants: usize,
    /// Announced prefixes.
    pub prefixes: usize,
    /// `None`: AMS-IX profile with multi-homing and the §6.1 policy mix
    /// (`sdx_bench::build_sdx`). `Some(g)`: single-homed prefixes and a
    /// policy mix sized to about `g` prefix groups (Figs. 7–10).
    pub target_groups: Option<usize>,
    /// The streamed-delta safety gate.
    pub delta_check: AnalysisMode,
}

/// One traffic-source participant and its border router.
#[derive(Debug)]
pub struct Source {
    /// The participant.
    pub id: ParticipantId,
    /// The router's port on the fabric.
    pub port: PortConfig,
    /// The router (FIB + ARP cache).
    pub router: BorderRouter,
    /// Prefixes this participant announces itself (it never sends traffic
    /// for them into the fabric).
    pub own: BTreeSet<Prefix>,
}

impl Source {
    /// Replace the router with a fresh one synced to the runtime's current
    /// advertisements; returns the routes installed.
    pub fn resync(&mut self, runtime: &SdxRuntime) -> usize {
        self.router = BorderRouter::new(self.port.port, self.port.mac, self.port.ip);
        runtime.sync_router(self.id, &mut self.router);
        self.router.fib_len()
    }
}

/// A compiled exchange ready to run.
#[derive(Debug)]
pub struct Fabric {
    /// The controller.
    pub runtime: SdxRuntime,
    /// The topology the runtime was built from.
    pub topology: IxpTopology,
    /// The traffic sources, with synced routers.
    pub sources: Vec<Source>,
}

/// Wall time of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology and policy generation, runtime construction.
    pub generate: Duration,
    /// Initial compile.
    pub compile: Duration,
    /// Initial sync of the traffic-source routers.
    pub sync: Duration,
}

impl SetupTimes {
    /// All phases together.
    pub fn total(&self) -> Duration {
        self.generate + self.compile + self.sync
    }
}

/// Build topology, policies and runtime (uncompiled).
pub fn generate(shape: Shape) -> (SdxRuntime, IxpTopology) {
    let seed = EXCHANGE_SEED;
    let options = CompileOptions {
        delta_check: shape.delta_check,
        threads: COMPILE_THREADS,
        dataplane_threads: SHARDS,
        ..CompileOptions::default()
    };
    let (mut runtime, topology) = match shape.target_groups {
        None => {
            let (runtime, topology, _mix) =
                sdx_bench::build_sdx(shape.participants, shape.prefixes, seed, options);
            (runtime, topology)
        }
        Some(groups) => {
            let profile = IxpProfile {
                multi_home_fraction: 0.0,
                ..IxpProfile::ams_ix(shape.participants, shape.prefixes)
            };
            let topology = IxpTopology::generate(profile, seed);
            let mix: PolicyMix =
                generate_policies_with_groups(&topology, groups, seed.wrapping_add(1));
            let mut runtime = SdxRuntime::new(options);
            topology.install(&mut runtime);
            for (id, policy) in &mix.policies {
                runtime.set_policy(*id, policy.clone());
            }
            (runtime, topology)
        }
    };
    runtime.set_dataplane_threads(SHARDS);
    (runtime, topology)
}

/// The whole set-up, timed phase by phase: generate, compile, and sync the
/// traffic-source routers `seed` picks.
pub fn setup(shape: Shape, seed: u64) -> (Fabric, SetupTimes) {
    let t = Instant::now();
    let (mut runtime, topology) = generate(shape);
    let generate = t.elapsed();

    let t = Instant::now();
    runtime.compile().expect("initial compile succeeds");
    let compile = t.elapsed();

    let t = Instant::now();
    let mut sources = pick_sources(&topology, seed);
    for s in &mut sources {
        s.resync(&runtime);
    }
    let sync = t.elapsed();
    (
        Fabric {
            runtime,
            topology,
            sources,
        },
        SetupTimes {
            generate,
            compile,
            sync,
        },
    )
}

/// A seeded choice of [`SOURCES`] physical participants.
fn pick_sources(topology: &IxpTopology, seed: u64) -> Vec<Source> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5a11);
    let mut physical: Vec<_> = topology
        .participants
        .iter()
        .filter(|p| p.is_physical())
        .collect();
    physical.shuffle(&mut rng);
    physical
        .into_iter()
        .take(SOURCES)
        .map(|p| {
            let port = p.ports[0];
            Source {
                id: p.id,
                port,
                router: BorderRouter::new(port.port, port.mac, port.ip),
                own: topology.announced_by(p.id).into_iter().collect(),
            }
        })
        .collect()
}

/// `count` flows `(source index, packet)` towards prefixes the source does
/// not announce itself; destination ports mix the policy ports (80, 443)
/// with default traffic (53, 22).
pub fn flows(
    topology: &IxpTopology,
    sources: &[Source],
    count: usize,
    seed: u64,
) -> Vec<(usize, Packet)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf10e_5eed);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let src = rng.gen_range(0..sources.len());
        let ann = &topology.announcements[rng.gen_range(0..topology.announcements.len())];
        let prefix = ann.prefixes[rng.gen_range(0..ann.prefixes.len())];
        if sources[src].own.contains(&prefix) {
            continue;
        }
        let pkt = Packet::new()
            .with(Field::EthType, 0x0800u16)
            .with(Field::IpProto, 17u8)
            .with(Field::SrcIp, Ipv4Addr::from(rng.gen::<u32>()))
            .with(Field::DstIp, prefix.first_addr())
            .with(Field::SrcPort, rng.gen_range(1024..u16::MAX))
            .with(Field::DstPort, [80u16, 443, 53, 22][rng.gen_range(0..4)]);
        out.push((src, pkt));
    }
    out
}

/// Let each flow's source router emit its frame (FIB lookup, ARP, VMAC
/// tag) into `frames`; returns the flows that found no route.
pub fn emit(
    runtime: &SdxRuntime,
    sources: &mut [Source],
    flows: &[(usize, Packet)],
    frames: &mut Vec<Packet>,
) -> u64 {
    frames.clear();
    let mut no_route = 0;
    for (src, pkt) in flows {
        let router = &mut sources[*src].router;
        match router_frame(runtime, router, pkt) {
            Some(f) => frames.push(f),
            None => no_route += 1,
        }
    }
    no_route
}

/// One packet through a border router, answering its ARP request from the
/// runtime when the next hop is unresolved.
pub fn router_frame(
    runtime: &SdxRuntime,
    router: &mut BorderRouter,
    pkt: &Packet,
) -> Option<Packet> {
    match router.forward(pkt.clone()) {
        Forward::Frame(f) => Some(f),
        Forward::NeedArp(req) => {
            let reply = runtime.resolve_arp(&req)?;
            router.learn_arp(&reply);
            match router.forward(pkt.clone()) {
                Forward::Frame(f) => Some(f),
                _ => None,
            }
        }
        Forward::NoRoute => None,
    }
}
