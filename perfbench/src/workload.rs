//! The three benchmark workloads: how each input is generated from the
//! seed, what the program is run on, and what the checks regenerate.

use ppa::analysis::RepeatExpander;
use ppa::experiments::experiment_config;
use ppa::lfk::{doacross_graph_with, DoacrossParams};
use ppa::prelude::*;
use ppa::sim::{scenario_trace, ScenarioConfig, ScenarioFamily};
use ppa::slice::suppress_events;
use ppa::trace::BinaryTraceWriter;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Livermore Loop 17 on the jittered 8-processor configuration.
    Lfk17,
    /// Spinlock, semaphore and fork/join scenarios, shuffled.
    EpisodesShuffled,
    /// Loop 17 on the jitter-free configuration, suppressed.
    Lfk17Suppressed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lfk17-bin" => Some(Workload::Lfk17),
            "episodes-shuffled-bin" => Some(Workload::EpisodesShuffled),
            "lfk17-suppressed-bin" => Some(Workload::Lfk17Suppressed),
            _ => None,
        }
    }
}

/// Input sizes. `full` is what the benchmark measures; `smoke` runs the
/// same harness and checks in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Loop 17 trip count (each iteration is 11 measured events).
    pub lfk17_trip: u64,
    /// Scenario rounds per processor of the spinlock and semaphore
    /// traces (32 and 16 events per round).
    pub episode_rounds: usize,
    /// Rounds of the fork/join trace (49 events per round).
    pub forkjoin_rounds: usize,
}

impl Scale {
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale {
                lfk17_trip: 30_000,
                episode_rounds: 4_000,
                forkjoin_rounds: 3_000,
            }),
            "smoke" => Some(Scale {
                lfk17_trip: 2_000,
                episode_rounds: 300,
                forkjoin_rounds: 300,
            }),
            _ => None,
        }
    }
}

/// Processors of every generated trace (the paper's FX/80 has 8).
pub const PROCESSORS: usize = 8;
/// Largest distance, in stream positions, that the shuffle moves an
/// episode event.
pub const SHUFFLE_DISPLACEMENT: u64 = 64;
/// `--reorder-window` for the shuffled traces: twice the displacement
/// is the smallest window that provably rejects no event (an event can
/// be overtaken by one at most `2 × displacement` sequence numbers
/// ahead of it).
pub const REORDER_WINDOW: u64 = 2 * SHUFFLE_DISPLACEMENT;
/// `--checkpoint-every` of the checkpointed analyze and of `ppa serve`.
/// The inputs are about a third of the CLI's default cadence (1,048,576
/// events), sized so that one run samples every command many times; the
/// cadence is scaled down with them so checkpointed runs still take
/// checkpoints. A multiple of the 4096-event binary block.
pub const CHECKPOINT_EVERY: u64 = 131_072;
/// Contended locks (spinlock) or semaphores (semaphore family).
const EPISODE_OBJECTS: usize = 4;

/// One generated input file of a workload.
pub struct Input {
    /// Short name, also the file stem.
    pub name: String,
    /// The measured trace the program is given, before any shuffle or
    /// suppression: the analysis ground for the reference checks.
    pub measured: Trace,
    /// The events as written to the file (shuffled or suppressed).
    pub physical: Vec<Event>,
    /// `--reorder-window` the input needs, if it is shuffled.
    pub reorder_window: Option<u64>,
    /// The uninstrumented run of the same program, when there is one.
    pub actual_total: Option<Span>,
}

impl Input {
    pub fn file_name(&self) -> String {
        format!("{}.bin", self.name)
    }
}

fn lfk17_program(trip: u64) -> Program {
    let params = DoacrossParams {
        trip,
        ..DoacrossParams::lfk17()
    };
    doacross_graph_with("lfk17", &params).expect("Loop 17 parameters build")
}

/// The 8-processor experiment configuration; jittered from `seed`, or
/// jitter-free when `seed` is `None`.
fn lfk17_config(seed: Option<u64>) -> SimConfig {
    let cfg = experiment_config();
    match seed {
        Some(s) => cfg.with_jitter(s, 150),
        None => SimConfig {
            jitter: None,
            ..cfg
        },
    }
}

fn lfk17_input(name: &str, trip: u64, seed: Option<u64>, with_actual: bool) -> Input {
    let program = lfk17_program(trip);
    let cfg = lfk17_config(seed);
    let measured = run_measured(&program, &InstrumentationPlan::full_with_sync(), &cfg)
        .expect("Loop 17 simulates")
        .trace;
    let actual_total = with_actual.then(|| {
        run_actual(&program, &cfg)
            .expect("Loop 17 simulates")
            .trace
            .total_time()
    });
    Input {
        name: name.into(),
        physical: Vec::new(),
        measured,
        reorder_window: None,
        actual_total,
    }
}

/// SplitMix64: the benchmark's own seeded generator, so the shuffle
/// depends on nothing in the program under test.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Bounded-displacement shuffle: event `i` is sorted by `i + U[0, d]`,
/// so no event moves more than `d` positions either way.
fn shuffle(events: &[Event], seed: u64, d: u64) -> Vec<Event> {
    let mut rng = SplitMix::new(seed);
    let mut keyed: Vec<(u64, usize)> = (0..events.len())
        .map(|i| (i as u64 + rng.next_u64() % (d + 1), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| events[i]).collect()
}

/// Generates every input of `workload`. With `with_actual`, Loop 17
/// inputs also get their uninstrumented ground truth (the checks need
/// it; set-up does not).
pub fn generate(
    workload: Workload,
    scale: Scale,
    seed: u64,
    with_actual: bool,
) -> (Vec<Input>, f64) {
    let t = Instant::now();
    let mut inputs = match workload {
        Workload::Lfk17 => vec![lfk17_input(
            "lfk17",
            scale.lfk17_trip,
            Some(seed),
            with_actual,
        )],
        // Jitter-free, so the trace (and the suppressed file) is the
        // same for every seed.
        Workload::Lfk17Suppressed => {
            vec![lfk17_input(
                "lfk17-suppressed",
                scale.lfk17_trip,
                None,
                with_actual,
            )]
        }
        Workload::EpisodesShuffled => ScenarioFamily::ALL
            .iter()
            .enumerate()
            .map(|(i, &family)| {
                let cfg = ScenarioConfig {
                    family,
                    processors: PROCESSORS,
                    rounds: match family {
                        ScenarioFamily::ForkJoin => scale.forkjoin_rounds,
                        _ => scale.episode_rounds,
                    },
                    objects: EPISODE_OBJECTS,
                    overheads: OverheadSpec::alliant_default(),
                };
                let family_seed = seed.wrapping_mul(3).wrapping_add(i as u64);
                Input {
                    name: family.to_string(),
                    measured: scenario_trace(family_seed, &cfg),
                    physical: Vec::new(),
                    reorder_window: Some(REORDER_WINDOW),
                    actual_total: None,
                }
            })
            .collect(),
    };
    for (i, input) in inputs.iter_mut().enumerate() {
        input.physical = match workload {
            Workload::Lfk17 => input.measured.events().to_vec(),
            Workload::EpisodesShuffled => shuffle(
                input.measured.events(),
                seed ^ (0x5348_5546 + i as u64),
                SHUFFLE_DISPLACEMENT,
            ),
            Workload::Lfk17Suppressed => suppress_events(input.measured.events()),
        };
    }
    (inputs, t.elapsed().as_secs_f64())
}

/// Writes one input in the binary container.
pub fn write_input(dir: &Path, input: &Input) -> std::io::Result<()> {
    let path = dir.join(input.file_name());
    let mut w = BinaryTraceWriter::new(
        BufWriter::new(File::create(&path)?),
        TraceKind::Measured,
        input.physical.len(),
    )
    .map_err(std::io::Error::other)?;
    for e in &input.physical {
        w.write_event(e).map_err(std::io::Error::other)?;
    }
    let mut inner = w.finish().map_err(std::io::Error::other)?;
    std::io::Write::flush(&mut inner)
}

/// Logical events a physical stream stands for (repeat records expanded).
pub fn logical_events(physical: &[Event]) -> usize {
    let mut expander = RepeatExpander::new();
    let mut buf = Vec::new();
    let mut n = 0;
    for &e in physical {
        buf.clear();
        expander
            .push(e, &mut buf)
            .expect("generated records expand");
        n += buf.len();
    }
    buf.clear();
    expander.finish(&mut buf);
    n + buf.len()
}

/// Statement events vs. synchronization joints, for the README's
/// make-up table.
pub fn composition(events: &[Event]) -> (usize, usize) {
    let statements = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Statement { .. }))
        .count();
    let joints = events
        .iter()
        .filter(|e| {
            e.kind.is_sync()
                || e.kind.is_barrier()
                || matches!(
                    e.kind,
                    EventKind::LockAcquire { .. }
                        | EventKind::LockRelease { .. }
                        | EventKind::SemAcquire { .. }
                        | EventKind::SemRelease { .. }
                        | EventKind::TaskFork { .. }
                        | EventKind::TaskJoin { .. }
                )
        })
        .count();
    (statements, joints)
}
