//! The deterministic label view of one labeled day — what the
//! correctness checks compare. A day's view runs to megabytes of
//! text, so it is hashed as it is written and only its 64-bit FNV-1a
//! digest is kept.

use mawilab_combiner::Decision;
use mawilab_core::OnlineReport;
use mawilab_label::LabeledCommunity;
use mawilab_similarity::AlarmCommunities;
use std::fmt::{self, Write};

/// FNV-1a 64 over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Digest of the rendered alarms, partition, decisions and labels. Rule degree and
/// support are rounded to nine decimals: the batch and streaming
/// labelers sum them in different orders.
pub fn render(
    communities: &AlarmCommunities,
    decisions: &[Decision],
    labeled: &[LabeledCommunity],
) -> u64 {
    let mut out = Fnv::new();
    // Writing to the hasher cannot fail.
    let _ = write!(
        out,
        "alarms={:?}\npartition={:?}\ndecisions={:?}\n",
        communities.alarms, communities.partition.community, decisions
    );
    for c in labeled {
        let _ = writeln!(
            out,
            "community={} label={:?} confidence={:?} heuristic={:?} window={:?} alarms={} \
             detectors={} rules={:?} transactions={} degree={:.9} support={:.9}",
            c.community,
            c.label,
            c.confidence,
            c.heuristic,
            c.window,
            c.alarms,
            c.detectors,
            c.summary.rules,
            c.summary.transactions,
            c.summary.rule_degree,
            c.summary.rule_support,
        );
    }
    out.0
}

pub fn of_online(report: &OnlineReport) -> u64 {
    let r = &report.report;
    render(&r.communities, &r.decisions, &r.labeled.communities)
}

/// Digest of a whole pass: the day digests in order, a failed day
/// hashing as a marker — comparable across runs and commits.
pub fn digest(views: &[Option<u64>]) -> String {
    let mut h = Fnv::new();
    for v in views {
        let _ = match v {
            Some(d) => write!(h, "{d:016x};"),
            None => write!(h, "failed;"),
        };
    }
    format!("{:016x}", h.0)
}
