//! Seeded round trips of random ground programs through their text.
//!
//! The constants and function terms come from a pool of names the
//! renderer has to quote (`'a b'`, `'X'`, `'not'`, `''`, `'it\'s'`)
//! beside bare ones (`a`, `42`) and nested applications (`f(g(a))`).
//! Two properties must hold on every program `g`:
//!
//! * `g.to_string()` parses back to the same rules, atom for atom;
//! * `Engine::load(&g.to_string())` solves to the true and undefined
//!   sets the crate-level alternating fixpoint gives `g` itself, although
//!   the grounder prunes rules that can never fire.

use afp::core::afp::alternating_fixpoint;
use afp::datalog::atoms::GroundTerm;
use afp::datalog::{parse_ground, AtomId, ConstId, GroundProgram, GroundProgramBuilder};
use afp::Engine;

/// Programs per property.
const CASES: u64 = 400;

/// Deterministic xorshift, so every case is reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Constant names, as the symbol store holds them.
const CONSTANTS: &[&str] = &["a b", "X", "not", "", "it's", "42", "a", "ñandú"];
/// Predicate names and functors.
const PREDICATES: &[&str] = &["p", "q", "r"];
const FUNCTORS: &[&str] = &["f", "g"];

/// A random term: a constant, or a functor over one or two terms, at
/// most `depth` applications deep.
fn term(b: &mut GroundProgramBuilder, rng: &mut Rng, depth: usize) -> ConstId {
    if depth == 0 || rng.below(3) > 0 {
        let sym = b
            .symbols_mut()
            .intern(CONSTANTS[rng.below(CONSTANTS.len())]);
        return b.base_mut().intern_const(sym);
    }
    let f = b.symbols_mut().intern(FUNCTORS[rng.below(FUNCTORS.len())]);
    let args: Vec<ConstId> = (0..1 + rng.below(2))
        .map(|_| term(b, rng, depth - 1))
        .collect();
    b.base_mut().intern_term(GroundTerm::App(f, args.into()))
}

/// A random ground program over a pool of at most eight atoms, so rules
/// share atoms: recursion, negative cycles and unsupported atoms.
fn random_program(seed: u64) -> GroundProgram {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut b = GroundProgramBuilder::new();
    let atoms: Vec<AtomId> = (0..1 + rng.below(8))
        .map(|_| {
            let pred = b
                .symbols_mut()
                .intern(PREDICATES[rng.below(PREDICATES.len())]);
            let args: Vec<ConstId> = (0..rng.below(3))
                .map(|_| term(&mut b, &mut rng, 2))
                .collect();
            b.base_mut().intern_atom(pred, &args)
        })
        .collect();
    for _ in 0..1 + rng.below(12) {
        let head = atoms[rng.below(atoms.len())];
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for _ in 0..rng.below(4) {
            let atom = atoms[rng.below(atoms.len())];
            if rng.below(2) == 0 {
                pos.push(atom);
            } else {
                neg.push(atom);
            }
        }
        b.rule(head, pos, neg);
    }
    b.finish()
}

/// The rules of `g`, each as its head and sorted positive and negative
/// bodies rendered by the ground writer, in a sorted list: equal for two
/// programs with the same rules whatever their atom ids.
fn rendered_rules(g: &GroundProgram) -> Vec<(String, Vec<String>, Vec<String>)> {
    let names = |atoms: &[AtomId]| {
        let mut names: Vec<String> = atoms.iter().map(|&a| g.atom_name(a)).collect();
        names.sort();
        names
    };
    let mut rules: Vec<_> = g
        .rules()
        .map(|r| (g.atom_name(r.head), names(&r.pos), names(&r.neg)))
        .collect();
    rules.sort();
    rules
}

#[test]
fn ground_programs_parse_back_to_the_same_rules() {
    let spellings = [
        "'a b'", "'X'", "'not'", "''", "'it\\'s'", "42", "ñandú", "f(g(",
    ];
    let mut unseen: Vec<&str> = spellings.to_vec();
    for seed in 0..CASES {
        let g = random_program(seed);
        let text = g.to_string();
        let parsed = parse_ground(&text);
        assert_eq!(
            rendered_rules(&parsed),
            rendered_rules(&g),
            "seed {seed}:\n{text}"
        );
        assert_eq!(
            parsed.to_string().lines().count(),
            g.rule_count(),
            "seed {seed}"
        );
        unseen.retain(|s| !text.contains(s));
    }
    assert!(unseen.is_empty(), "no program rendered {unseen:?}");
}

#[test]
fn loading_the_rendering_keeps_the_well_founded_model() {
    let sorted = |it: &mut dyn Iterator<Item = String>| {
        let mut v: Vec<String> = it.collect();
        v.sort();
        v
    };
    for seed in 0..CASES {
        let g = random_program(seed);
        let text = g.to_string();
        let expected = alternating_fixpoint(&g).model;
        let model = Engine::default().load(&text).unwrap().solve().unwrap();
        assert_eq!(
            sorted(&mut model.true_atoms()),
            g.set_to_names(&expected.pos),
            "true atoms, seed {seed}:\n{text}"
        );
        assert_eq!(
            sorted(&mut model.undefined_atoms()),
            g.set_to_names(&expected.undefined()),
            "undefined atoms, seed {seed}:\n{text}"
        );
    }
}
