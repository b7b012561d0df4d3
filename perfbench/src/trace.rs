//! Reading the server's `--trace` stream: one Chrome trace event per
//! line (`[` first, a trailing comma after each event). Every write
//! cycle emits a `cycle` span carrying its version and batch width, then
//! its phases in order, each carrying the version.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json;

/// Phases of one write cycle, µs, in the order the cycle runs them.
pub const PHASES: [&str; 7] = [
    "ground",
    "repair",
    "condense",
    "solve",
    "journal_append",
    "fsync",
    "publish",
];

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cycle {
    pub total: f64,
    pub width: u64,
    /// Durations indexed like [`PHASES`].
    pub phases: [f64; 7],
    /// Events of this cycle read so far (the `cycle` span and phases).
    pub events: usize,
}

impl Cycle {
    pub fn phase(&self, name: &str) -> f64 {
        PHASES
            .iter()
            .position(|p| *p == name)
            .map_or(0.0, |i| self.phases[i])
    }

    /// Whether every event of the cycle is in the file.
    pub fn complete(&self) -> bool {
        self.events == PHASES.len() + 1
    }
}

/// Re-read the trace file at `path` until it holds the whole cycle that
/// published `version`: the server acknowledges a write before its trace
/// writer thread has put the cycle's events into the file. Only whole
/// lines are parsed, since the writer may be mid-line. After `timeout`
/// it gives up waiting and returns what the file holds; the flag says
/// whether that includes the whole cycle of `version`.
pub fn read_through(
    path: &Path,
    version: u64,
    timeout: Duration,
) -> Result<(BTreeMap<u64, Cycle>, bool), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading the trace: {e}"))?;
        let whole = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
        let cycles = parse(whole)?;
        let through = cycles.get(&version).is_some_and(Cycle::complete);
        if through || Instant::now() >= deadline {
            return Ok((cycles, through));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Cycles by published version.
pub fn parse(text: &str) -> Result<BTreeMap<u64, Cycle>, String> {
    let mut cycles: BTreeMap<u64, Cycle> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let ev = json::parse(line).map_err(|e| format!("bad trace line {line:?}: {e}"))?;
        let name = ev.get("name").and_then(json::Json::str).unwrap_or("");
        let version = ev.num_at("args.version") as u64;
        let dur = ev.num_at("dur");
        let cycle = cycles.entry(version).or_default();
        if name == "cycle" {
            cycle.total = dur;
            cycle.width = ev.num_at("args.width") as u64;
            cycle.events += 1;
        } else if let Some(i) = PHASES.iter().position(|p| *p == name) {
            cycle.phases[i] = dur;
            cycle.events += 1;
        }
    }
    Ok(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_keyed_by_version() {
        let text = "[\n\
            {\"name\":\"cycle\",\"cat\":\"cycle\",\"ph\":\"X\",\"ts\":10,\"dur\":50,\"pid\":1,\"tid\":1,\"args\":{\"version\":3,\"width\":2}},\n\
            {\"name\":\"ground\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":10,\"dur\":7,\"pid\":1,\"tid\":1,\"args\":{\"version\":3}},\n\
            {\"name\":\"solve\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":17,\"dur\":30,\"pid\":1,\"tid\":1,\"args\":{\"version\":3}},\n";
        let cycles = parse(text).unwrap();
        let c = &cycles[&3];
        assert_eq!((c.total, c.width), (50.0, 2));
        assert_eq!(c.phase("ground"), 7.0);
        assert_eq!(c.phase("solve"), 30.0);
        assert_eq!(c.phase("fsync"), 0.0);
        assert!(!c.complete(), "four phases are still missing");
    }

    #[test]
    fn read_through_waits_for_the_whole_cycle() {
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let event = |name: &str| {
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":1,\"dur\":2,\"args\":{{\"version\":5,\"width\":1}}}},\n"
            )
        };
        let mut text = String::from("[\n") + &event("cycle");
        for p in &PHASES[..6] {
            text += &event(p);
        }
        // The last phase is only half written.
        text += &event("publish")[..20];
        std::fs::write(&path, &text).unwrap();
        let short = Duration::from_millis(30);
        let (partial, through) = read_through(&path, 5, short).unwrap();
        assert!(!through, "the half-written line is not read");
        assert!(!partial[&5].complete());
        text.truncate(text.rfind('\n').unwrap() + 1);
        text += &event("publish");
        std::fs::write(&path, &text).unwrap();
        let (cycles, through) = read_through(&path, 5, short).unwrap();
        assert!(through);
        assert!(cycles[&5].complete());
        assert_eq!(cycles[&5].phase("publish"), 2.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
