//! In-memory spans for the traced run.
//!
//! Each client request is one root span; its children are the layers
//! that served it: write-cycle phases read from the server's `--trace`
//! stream (matched by the acknowledged version) and layer costs timed by
//! the in-process replay. A span's **self time** is its duration minus
//! the part of its interval that its children cover. Spans stay in
//! memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;

use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request id; every span of one request shares it.
    pub req: u64,
    /// Index of the parent span in the same [`SpanLog`], `None` at a root.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Start and end, µs on the client's clock.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span; returns its index, the handle children point at.
    pub fn push(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            req,
            parent,
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Lay children out back to back from `start`, in order, under
    /// `parent`: how a write cycle runs its phases.
    pub fn push_sequence(
        &mut self,
        req: u64,
        parent: usize,
        start: f64,
        parts: &[(&'static str, f64)],
    ) {
        let mut cursor = start;
        for &(name, dur) in parts {
            self.push(req, Some(parent), name, cursor, cursor + dur);
            cursor += dur;
        }
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals clipped to its own.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
            .collect()
    }

    /// Self times grouped by span name, e.g. all `incremental.ground`
    /// self times of the run.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            by.entry(s.name).or_default().push(t);
        }
        by
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals` intersected with `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The layer split of one request kind's end-to-end median.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Median duration of the root spans.
    pub median: f64,
    /// Each named layer's share of the median, from the median band.
    pub layers: Vec<(&'static str, f64)>,
    /// `median − Σ layers`: what the named layers do not explain.
    pub unaccounted: f64,
}

impl Split {
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Split the median of the `root` spans into layer self times. Medians
/// of the layers do not add up to the median of the whole when costs
/// are multimodal (one write pays a copy, the next a deallocation), so
/// the split is taken where the median lives: over the requests whose
/// end-to-end time lies between the 40th and 60th percentiles, a
/// layer's share is its self time summed over those requests divided by
/// their summed end-to-end time, and its value is that share of the
/// median. The residual is the share no named layer covers; it is
/// negative only when replayed layer costs overestimate the server's.
pub fn median_split(log: &SpanLog, root: &str, layers: &[&'static str]) -> Split {
    let self_times = log.self_times();
    let roots: Vec<&Span> = log
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .collect();
    let sorted = stats::sorted(&roots.iter().map(|s| s.dur()).collect::<Vec<_>>());
    let (Some(lo), Some(hi), Some(median)) = (
        stats::percentile_sorted(&sorted, 40.0),
        stats::percentile_sorted(&sorted, 60.0),
        stats::percentile_sorted(&sorted, 50.0),
    ) else {
        return Split {
            median: 0.0,
            layers: layers.iter().map(|&n| (n, 0.0)).collect(),
            unaccounted: 0.0,
        };
    };
    let band: std::collections::HashSet<u64> = roots
        .iter()
        .filter(|s| (lo..=hi).contains(&s.dur()))
        .map(|s| s.req)
        .collect();
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in log.spans.iter().zip(&self_times) {
        if band.contains(&s.req) {
            *sums.entry(s.name).or_default() += t;
        }
    }
    let band_total: f64 = roots
        .iter()
        .filter(|s| band.contains(&s.req))
        .map(|s| s.dur())
        .sum();
    let layers: Vec<(&'static str, f64)> = layers
        .iter()
        .map(|&name| {
            let share = sums.get(name).copied().unwrap_or(0.0) / band_total.max(f64::MIN_POSITIVE);
            (name, median * share)
        })
        .collect();
    let unaccounted = median - layers.iter().map(|(_, v)| v).sum::<f64>();
    Split {
        median,
        layers,
        unaccounted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut log = SpanLog::default();
        let root = log.push(1, None, "client.write", 0.0, 100.0);
        let cycle = log.push(1, Some(root), "service.cycle", 40.0, 100.0);
        log.push_sequence(
            1,
            cycle,
            40.0,
            &[("incremental.ground", 10.0), ("modular.solve", 30.0)],
        );
        let t = log.self_times();
        assert_eq!(t[root], 40.0, "root minus the cycle it waited on");
        assert_eq!(t[cycle], 20.0, "cycle minus ground and solve");
        assert_eq!(t[2], 10.0);
        assert_eq!(t[3], 30.0);
        assert_eq!(
            t.iter().sum::<f64>(),
            100.0,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap on [20, 30]; one overhangs the parent.
        assert_eq!(covered(0.0, 50.0, vec![(10.0, 30.0), (20.0, 40.0)]), 30.0);
        assert_eq!(covered(0.0, 50.0, vec![(40.0, 80.0)]), 10.0);
        assert_eq!(covered(0.0, 50.0, vec![]), 0.0);
        let mut log = SpanLog::default();
        let root = log.push(7, None, "client.query", 0.0, 10.0);
        log.push(7, Some(root), "codec.execute", 2.0, 30.0);
        assert_eq!(log.self_times()[root], 2.0, "self time never goes negative");
    }

    /// One write: root of `total` µs holding a cycle of ground + publish
    /// (plus `slack` µs of unnamed cycle work); the rest is queue wait.
    fn write(log: &mut SpanLog, req: u64, total: f64, ground: f64, publish: f64, slack: f64) {
        let base = req as f64 * 1_000.0;
        let cycle_len = ground + publish + slack;
        let root = log.push(req, None, "client.write", base, base + total);
        let cycle = log.push(
            req,
            Some(root),
            "service.cycle",
            base + total - cycle_len,
            base + total,
        );
        log.push_sequence(
            req,
            cycle,
            base + total - cycle_len,
            &[("incremental.ground", ground), ("service.publish", publish)],
        );
    }

    #[test]
    fn median_split_adds_up_where_medians_of_parts_do_not() {
        // Bimodal costs: a write pays either a 40 µs ground or a 40 µs
        // publish. The median of each part is 10, far from half the
        // median write; the band split recovers a sum that adds up.
        let mut log = SpanLog::default();
        for req in 0..10 {
            let (g, p) = if req % 2 == 0 {
                (40.0, 10.0)
            } else {
                (10.0, 40.0)
            };
            write(&mut log, req, 60.0 + req as f64, g, p, 2.0);
        }
        let layers = ["client.write", "incremental.ground", "service.publish"];
        let split = median_split(&log, "client.write", &layers);
        // Latencies 60..69: median 64 (rank 5); band [p40, p60] = 63..65.
        assert_eq!(split.median, 64.0);
        let band_queue_wait = ((63.0 - 52.0) + (64.0 - 52.0) + (65.0 - 52.0)) / 3.0;
        assert_eq!(split.layer("client.write"), band_queue_wait);
        assert_eq!(
            split.layer("incremental.ground"),
            (10.0 + 40.0 + 10.0) / 3.0
        );
        assert_eq!(split.layer("service.publish"), (40.0 + 10.0 + 40.0) / 3.0);
        // What is left is the unnamed cycle work (2 µs per write).
        assert!((split.unaccounted - 2.0).abs() < 1e-9, "{split:?}");
        let total: f64 = split.layers.iter().map(|(_, v)| v).sum::<f64>() + split.unaccounted;
        assert!((total - split.median).abs() < 1e-9);
    }

    #[test]
    fn median_split_scales_band_shares_to_the_median() {
        // Latencies 10, 20, 40, 50, 90: median 40 (rank 3), band
        // [p40, p60] = {20, 40}. Each request spends half its time in
        // `modular.solve`, so solve gets half the median.
        let mut log = SpanLog::default();
        for (req, total) in [10.0, 20.0, 40.0, 50.0, 90.0].into_iter().enumerate() {
            let base = req as f64 * 1_000.0;
            let root = log.push(req as u64, None, "client.write", base, base + total);
            log.push(
                req as u64,
                Some(root),
                "modular.solve",
                base,
                base + total / 2.0,
            );
        }
        let split = median_split(&log, "client.write", &["client.write", "modular.solve"]);
        assert_eq!(split.median, 40.0);
        assert_eq!(split.layer("modular.solve"), 20.0);
        assert_eq!(split.layer("client.write"), 20.0);
        assert_eq!(split.unaccounted, 0.0);
    }

    #[test]
    fn median_split_of_nothing_is_zero() {
        let split = median_split(&SpanLog::default(), "client.query", &["codec.parse"]);
        assert_eq!(split.median, 0.0);
        assert_eq!(split.unaccounted, 0.0);
        assert_eq!(split.layer("codec.parse"), 0.0);
    }

    #[test]
    fn by_name_groups_self_times() {
        let mut log = SpanLog::default();
        for req in 0..3 {
            let base = req as f64 * 100.0;
            let root = log.push(req, None, "client.write", base, base + 50.0);
            log.push(req, Some(root), "modular.solve", base + 10.0, base + 30.0);
        }
        let by = log.self_times_by_name();
        assert_eq!(by["client.write"], vec![30.0; 3]);
        assert_eq!(by["modular.solve"], vec![20.0; 3]);
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 6);
    }
}
