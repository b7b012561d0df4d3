//! The three workloads: their fixed definition (sizes, mix, rates,
//! journal policy) and the seeded generation of the program file and
//! the toggle items every write draws from.

use afp_bench::Graph;

/// A small seeded generator (SplitMix64): the same seed gives the same
/// program, the same write targets and the same query stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one connection sends in the open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct ConnSpec {
    /// Requests per second, scheduled at fixed spacing.
    pub rate: f64,
    /// Fraction of `at V` reads; writes take `write_frac`; the rest
    /// are `query` reads.
    pub at_frac: f64,
    pub write_frac: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Default seed, used when `--seed` is not given.
    pub default_seed: u64,
    /// Run the server with `--journal` (fresh dir, `--fsync always`).
    pub journal: bool,
    /// `--checkpoint-every` when journaled.
    pub checkpoint_every: u64,
    /// Server start-ups per run, the first half before the open loop and
    /// the rest after the restarts; `setup_s` is their median.
    pub setups: usize,
    /// SIGKILL-and-restart cycles per run; `recover_s` is their median.
    pub restarts: usize,
    pub conns: [ConnSpec; 2],
}

/// Closed-loop saturation phase length as a share of `--seconds`.
pub const SATURATION_SHARE: f64 = 0.2;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read_heavy",
        default_seed: 1,
        journal: false,
        checkpoint_every: 0,
        setups: 30,
        restarts: 3,
        conns: [
            ConnSpec {
                rate: 2000.0,
                at_frac: 0.05,
                write_frac: 0.0025,
            },
            ConnSpec {
                rate: 2000.0,
                at_frac: 0.05,
                write_frac: 0.0025,
            },
        ],
    },
    Spec {
        name: "write_edb",
        default_seed: 2,
        journal: true,
        checkpoint_every: 100,
        setups: 6,
        restarts: 1,
        conns: [
            ConnSpec {
                rate: 8.0,
                at_frac: 0.0,
                write_frac: 1.0,
            },
            ConnSpec {
                rate: 400.0,
                at_frac: 0.0,
                write_frac: 0.0,
            },
        ],
    },
    Spec {
        name: "wide_cone",
        default_seed: 3,
        journal: false,
        checkpoint_every: 0,
        setups: 30,
        restarts: 3,
        conns: [
            ConnSpec {
                rate: 30.0,
                at_frac: 0.0,
                write_frac: 1.0,
            },
            ConnSpec {
                rate: 400.0,
                at_frac: 0.0,
                write_frac: 0.0,
            },
        ],
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// One thing a write toggles: a fact (`assert-facts`/`retract-facts`)
/// or a rule (`assert`/`retract`). `present` is the generator's view of
/// whether it is in the program now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub text: String,
    pub rule: bool,
    pub present: bool,
    /// Relative pick weight among the items one connection owns.
    pub weight: u32,
}

impl Item {
    fn fact(text: String, present: bool) -> Item {
        Item {
            text,
            rule: false,
            present,
            weight: 1,
        }
    }

    /// The command that flips this item, given its current presence.
    pub fn toggle_command(&self) -> String {
        let verb = match (self.rule, self.present) {
            (false, false) => "assert-facts",
            (false, true) => "retract-facts",
            (true, false) => "assert",
            (true, true) => "retract",
        };
        format!("{verb} {}", self.text)
    }
}

/// A generated workload instance.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Statements that no write touches.
    pub fixed: String,
    /// Everything a write can toggle, with its initial presence.
    pub items: Vec<Item>,
    /// Item indices each connection owns in the open-loop phase…
    pub open_owned: [Vec<usize>; 2],
    /// …and in the saturation phase (disjoint, so the final state does
    /// not depend on how the two connections interleave).
    pub sat_owned: [Vec<usize>; 2],
    /// Query atoms are `{query_pred}({query_prefix}I)` for I uniform
    /// below `query_keys`.
    pub query_pred: &'static str,
    pub query_prefix: &'static str,
    pub query_keys: u64,
}

impl Generated {
    /// Program text with every item in its current state.
    pub fn program(&self) -> String {
        let mut out = self.fixed.clone();
        for item in self.items.iter().filter(|i| i.present) {
            out.push_str(&item.text);
            out.push('\n');
        }
        out
    }

    pub fn query_atom(&self, rng: &mut Rng) -> String {
        format!(
            "{}({}{})",
            self.query_pred,
            self.query_prefix,
            rng.below(self.query_keys)
        )
    }
}

/// The seed of `read_heavy`'s game graph and write pools.
const GRAPH_SEED: u64 = 1;

/// The workload's program and toggle items. They are the same for every
/// seed: the seed draws the request stream (see `client`).
pub fn generate(spec: &Spec) -> Generated {
    match spec.name {
        "read_heavy" => read_heavy(),
        "write_edb" => write_edb(),
        "wide_cone" => wide_cone(),
        other => unreachable!("no generator for workload {other}"),
    }
}

/// Win/move (paper Example 5.2) over a random 3-out graph on 10⁴
/// nodes; writes toggle non-edges from two disjoint per-connection
/// pools. Every pool endpoint keeps other `move` facts, so a retract
/// never shrinks the active domain. The graph and the pools are drawn
/// from a fixed seed, so every run serves the same game and toggles the
/// same edges; the run's seed draws the request stream in the client. A
/// graph or pool per seed would make the run-to-run spread measure the
/// graphs: a toggled edge's cone, and so a write's cost, varies widely
/// from edge to edge.
fn read_heavy() -> Generated {
    const NODES: usize = 10_000;
    const POOL: usize = 64;
    let g = Graph::random_regular_out(NODES, 3, GRAPH_SEED);
    let mut fixed = String::from("wins(X) :- move(X, Y), not wins(Y).\n");
    let mut has_out = vec![false; NODES];
    let mut edges = std::collections::HashSet::new();
    for &(u, v) in &g.edges {
        fixed.push_str(&format!("move(n{u}, n{v}).\n"));
        has_out[u as usize] = true;
        edges.insert((u, v));
    }
    let mut rng = Rng::new(GRAPH_SEED.wrapping_add(101));
    let mut items = Vec::new();
    let mut chosen = std::collections::HashSet::new();
    while items.len() < 2 * POOL {
        let a = rng.below(NODES as u64) as u32;
        let b = rng.below(NODES as u64) as u32;
        if a == b
            || !has_out[a as usize]
            || !has_out[b as usize]
            || edges.contains(&(a, b))
            || !chosen.insert((a, b))
        {
            continue;
        }
        items.push(Item::fact(format!("move(n{a}, n{b})."), false));
    }
    let first: Vec<usize> = (0..POOL).collect();
    let second: Vec<usize> = (POOL..2 * POOL).collect();
    Generated {
        fixed,
        items,
        open_owned: [first.clone(), second.clone()],
        sat_owned: [first, second],
        query_pred: "wins",
        query_prefix: "n",
        query_keys: NODES as u64,
    }
}

/// A knot forest over 10⁵ keys with `d(kI)` for even I: 1.5·10⁵ EDB
/// facts. A write toggles one `d(kI)`, whose cone is one knot.
fn write_edb() -> Generated {
    const KEYS: usize = 100_000;
    let mut fixed =
        String::from("a(K) :- e(K), not b(K).\nb(K) :- e(K), not a(K), not c(K).\nc(K) :- d(K).\n");
    for i in 0..KEYS {
        fixed.push_str(&format!("e(k{i}).\n"));
    }
    let items: Vec<Item> = (0..KEYS)
        .map(|i| Item::fact(format!("d(k{i})."), i % 2 == 0))
        .collect();
    Generated {
        fixed,
        items,
        open_owned: [(0..KEYS).collect(), Vec::new()],
        sat_owned: [
            (0..KEYS).step_by(2).collect(),
            (1..KEYS).step_by(2).collect(),
        ],
        query_pred: "a",
        query_prefix: "k",
        query_keys: KEYS as u64,
    }
}

/// 4000 knots behind one `gate` fact; writes toggle the gate (every
/// knot's component re-solves) or a rule with 4000 ground instances.
fn wide_cone() -> Generated {
    const KEYS: usize = 4_000;
    let mut fixed = String::from("a(K) :- e(K), not b(K).\nb(K) :- e(K), not a(K), not gate.\n");
    for i in 0..KEYS {
        fixed.push_str(&format!("e(k{i}).\n"));
    }
    let items = vec![
        Item {
            text: "gate.".into(),
            rule: false,
            present: true,
            weight: 9,
        },
        Item {
            text: "c(K) :- e(K), not a(K).".into(),
            rule: true,
            present: false,
            weight: 1,
        },
    ];
    Generated {
        fixed,
        items,
        open_owned: [vec![0, 1], Vec::new()],
        sat_owned: [vec![0], vec![1]],
        query_pred: "a",
        query_prefix: "k",
        query_keys: KEYS as u64,
    }
}

/// Weighted pick among owned items (uniform when all weights are 1).
pub fn pick(owned: &[(usize, Item)], rng: &mut Rng) -> usize {
    let total: u64 = owned.iter().map(|(_, i)| u64::from(i.weight)).sum();
    let mut r = rng.below(total);
    for (pos, (_, item)) in owned.iter().enumerate() {
        let w = u64::from(item.weight);
        if r < w {
            return pos;
        }
        r -= w;
    }
    owned.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded() {
        let spec = spec("read_heavy").unwrap();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.program(), b.program(), "one game for every seed");
        assert_eq!(a.items, b.items, "one pair of write pools");
        let (mut r1, mut r2, mut r3) = (Rng::new(5), Rng::new(5), Rng::new(6));
        let stream = |r: &mut Rng| (0..8).map(|_| a.query_atom(r)).collect::<Vec<_>>();
        assert_eq!(stream(&mut r1), stream(&mut r2));
        assert_ne!(
            stream(&mut r1),
            stream(&mut r3),
            "the seed draws the stream"
        );
    }

    #[test]
    fn toggles_alternate_and_saturation_owners_are_disjoint() {
        let mut item = Item::fact("d(k1).".into(), false);
        assert_eq!(item.toggle_command(), "assert-facts d(k1).");
        item.present = true;
        assert_eq!(item.toggle_command(), "retract-facts d(k1).");
        for spec in WORKLOADS {
            let g = generate(&spec);
            let [x, y] = &g.sat_owned;
            assert!(x.iter().all(|i| !y.contains(i)), "{}", spec.name);
        }
    }

    #[test]
    fn weighted_pick_follows_weights() {
        let g = generate(&spec("wide_cone").unwrap());
        let owned: Vec<(usize, Item)> = g.items.iter().cloned().enumerate().collect();
        let mut rng = Rng::new(1);
        let gates = (0..10_000).filter(|_| pick(&owned, &mut rng) == 0).count();
        assert!((8_700..9_300).contains(&gates), "{gates}");
    }
}
