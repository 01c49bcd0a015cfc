//! Output checks that do not copy today's output: every report is
//! compared with `event_based_reference` computed here, on the trace
//! regenerated from the seed (unshuffled and unsuppressed).

use crate::workload::{self, Input};
use crate::{json_object, json_str, Args};
use ppa::analysis::event_based_reference;
use ppa::prelude::*;
use ppa::trace::AnyTraceReader;
use std::collections::BTreeMap;
use std::io::BufReader;

/// Largest relative distance between the approximated total time and
/// the uninstrumented run's total that check (b) accepts.
const GROUND_TRUTH_TOLERANCE: f64 = 0.01;

/// The expected report of one input.
pub struct Expected {
    pub events: Vec<Event>,
    pub measured_len: usize,
    pub actual_total: Option<Span>,
}

impl Expected {
    pub fn of(input: &Input) -> Result<Expected, String> {
        let reference = event_based_reference(&input.measured, &OverheadSpec::alliant_default())
            .map_err(|e| format!("{}: reference analysis failed: {e}", input.name))?;
        Ok(Expected {
            events: reference.trace.events().to_vec(),
            measured_len: input.measured.len(),
            actual_total: input.actual_total,
        })
    }

    /// Checks (a), (b) and (d) on one report's events.
    pub fn check(&self, report: &[Event]) -> Result<(), String> {
        if report.len() != self.measured_len {
            return Err(format!(
                "(d) report has {} events, the measured trace {}",
                report.len(),
                self.measured_len
            ));
        }
        if let Some(i) = (0..report.len()).find(|&i| report[i] != self.events[i]) {
            return Err(format!(
                "(a) event {i} differs from the reference: report {:?}, reference {:?}",
                report[i], self.events[i]
            ));
        }
        if let Some(actual) = self.actual_total {
            let approx = Trace::from_events(TraceKind::Approximated, report.to_vec()).total_time();
            let ratio = approx.as_nanos() as f64 / actual.as_nanos() as f64;
            if (ratio - 1.0).abs() > GROUND_TRUTH_TOLERANCE {
                return Err(format!(
                    "(b) approximated/actual total time is {ratio:.5}, outside 1 ± {GROUND_TRUTH_TOLERANCE}"
                ));
            }
        }
        Ok(())
    }
}

/// Decodes a report file (either container).
pub fn read_report(path: &str) -> Result<Vec<Event>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let reader = AnyTraceReader::open(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    reader
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{path}: {e}"))
}

/// Moves one timestamp of a correct report by one nanosecond; the
/// checks must reject the result.
pub fn negative_control(expected: &Expected, report: &[Event]) -> bool {
    let mut moved = report.to_vec();
    let i = moved.len() / 2;
    moved[i].time = Time::from_nanos(moved[i].time.as_nanos() + 1);
    expected.check(&moved).is_err()
}

pub fn run(args: &Args) -> Result<String, String> {
    let (inputs, _) = workload::generate(args.workload, args.scale, args.seed, true);
    let mut expected: BTreeMap<String, Expected> = BTreeMap::new();
    let mut problems = Vec::new();
    let mut reports = 0;
    let mut control: Option<bool> = None;
    for (flag, value) in &args.rest {
        if flag != "--report" {
            return Err(format!("unknown flag {flag}"));
        }
        let (name, path) = value
            .split_once('=')
            .ok_or_else(|| format!("--report wants NAME=PATH, got {value}"))?;
        let input = inputs
            .iter()
            .find(|i| i.name == name)
            .ok_or_else(|| format!("no input named {name}"))?;
        if !expected.contains_key(name) {
            expected.insert(name.to_string(), Expected::of(input)?);
        }
        let exp = &expected[name];
        let events = read_report(path)?;
        reports += 1;
        if let Err(e) = exp.check(&events) {
            problems.push(format!("{path}: {e}"));
            continue;
        }
        if control.is_none() {
            control = Some(negative_control(exp, &events));
        }
    }
    let rejected = control.unwrap_or(false);
    if !rejected {
        problems.push("negative control: a report with one moved timestamp passed".into());
    }
    let problems_json: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    Ok(json_object(&[
        ("correct".into(), problems.is_empty().to_string()),
        ("reports".into(), reports.to_string()),
        ("negative_control_rejected".into(), rejected.to_string()),
        ("problems".into(), format!("[{}]", problems_json.join(", "))),
    ]))
}
