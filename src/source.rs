//! The retained source program of a [`crate::Session`]: the statements
//! every warm delta has been mirrored into, and a hash index over them,
//! in one type so that no path can edit one without the other.
//!
//! The session keeps the source program for its cold fallback (a single
//! re-ground of the edited program) and for checkpoints
//! ([`crate::Session::source_text`]). Each warm write mirrors its
//! statements here, so the mirror must cost `O(1)` per statement, not a
//! scan of the program. The index is an open-addressing table of
//! positions into the statement list: it stores four bytes per slot and
//! hashes statements on demand, so it copies no atom. Statements arrive
//! from clients, so they are hashed with the standard library's keyed
//! hasher: no one can pick statements that collide.

use afp_datalog::ast::{import_rule, Program, Rule};
use afp_datalog::SymbolStore;
use std::hash::{BuildHasher, RandomState};

/// A free table slot.
const EMPTY: u32 = u32::MAX;

/// A program whose statements are a set: each appears once, and adding
/// or removing one is `O(1)` expected.
#[derive(Debug, Clone)]
pub(crate) struct SourceProgram {
    program: Program,
    /// Linear-probing table of positions into `program.rules`; its
    /// length is a power of two at least twice the statement count.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl SourceProgram {
    /// Index `program`, dropping repeated statements (the first
    /// occurrence stays, in source order). The statements stay in their
    /// list: the ones kept so far are a prefix of it, and the table
    /// indexes only that prefix, so each new statement moves down to its
    /// end.
    pub(crate) fn new(program: Program) -> SourceProgram {
        let slots = vec![EMPTY; table_len(program.rules.len())];
        let mut source = SourceProgram {
            program,
            slots,
            hasher: RandomState::new(),
        };
        let mut kept = 0;
        for i in 0..source.program.rules.len() {
            if let Err(free) = source.find(&source.program.rules[i]) {
                source.slots[free] = kept as u32;
                source.program.rules.swap(kept, i);
                kept += 1;
            }
        }
        source.program.rules.truncate(kept);
        source
    }

    /// The statements, as a program.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// Add (`assert`) or remove `rules`, written against `from`. Both
    /// directions are idempotent. A removal moves the last statement into
    /// the freed position, so statement order is not preserved.
    pub(crate) fn apply(&mut self, rules: &[Rule], from: &SymbolStore, assert: bool) {
        for rule in rules {
            let imported = import_rule(&mut self.program.symbols, rule, from);
            if assert {
                self.insert(imported);
            } else {
                self.remove(&imported);
            }
        }
    }

    fn insert(&mut self, rule: Rule) {
        let Err(free) = self.find(&rule) else {
            return;
        };
        self.slots[free] = self.program.rules.len() as u32;
        self.program.rules.push(rule);
        if 2 * self.program.rules.len() > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
    }

    fn remove(&mut self, rule: &Rule) {
        let Ok(slot) = self.find(rule) else {
            return;
        };
        let pos = self.slots[slot] as usize;
        self.vacate(slot);
        let last = self.program.rules.len() - 1;
        self.program.rules.swap_remove(pos);
        if pos != last {
            // The former last statement now lives at `pos`.
            let mut i = self.home(&self.program.rules[pos]);
            while self.slots[i] != last as u32 {
                i = (i + 1) & (self.slots.len() - 1);
            }
            self.slots[i] = pos as u32;
        }
    }

    /// `Ok(slot)` holding `rule`, or `Err(slot)` where it would go.
    fn find(&self, rule: &Rule) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(rule);
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                pos if self.program.rules[pos as usize] == *rule => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Empty `slot`, shifting later entries of its probe run back so
    /// every entry stays reachable from its home slot (no tombstones).
    fn vacate(&mut self, mut slot: usize) {
        let mask = self.slots.len() - 1;
        let mut j = slot;
        loop {
            self.slots[slot] = EMPTY;
            loop {
                j = (j + 1) & mask;
                let pos = self.slots[j];
                if pos == EMPTY {
                    return;
                }
                // The entry at `j` may move to `slot` unless its home lies
                // cyclically in `(slot, j]`.
                let home = self.home(&self.program.rules[pos as usize]);
                if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(slot) & mask) {
                    self.slots[slot] = pos;
                    slot = j;
                    break;
                }
            }
        }
    }

    fn rehash(&mut self, len: usize) {
        self.slots = vec![EMPTY; len];
        let mask = len - 1;
        for (pos, rule) in self.program.rules.iter().enumerate() {
            let mut i = self.home(rule);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = pos as u32;
        }
    }

    /// The home slot of `rule`: the top bits of its hash.
    fn home(&self, rule: &Rule) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (self.hasher.hash_one(rule) >> (64 - bits)) as usize
    }
}

/// Table length for `statements`: a power of two, at least twice the
/// count and at least 16.
fn table_len(statements: usize) -> usize {
    (2 * statements).next_power_of_two().max(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn statements(source: &SourceProgram) -> Vec<String> {
        let mut lines: Vec<String> = source
            .program()
            .to_text()
            .lines()
            .map(str::to_owned)
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn statements_are_a_set_under_asserts_and_retracts() {
        let mut source =
            SourceProgram::new(afp_datalog::parse_program("p(a). q :- not p(b). p(a).").unwrap());
        assert_eq!(statements(&source), ["p(a).", "q :- not p(b)."]);
        let delta = afp_datalog::parse_program("p(c). p(a). q :- not p(b).").unwrap();
        source.apply(&delta.rules, &delta.symbols, true);
        assert_eq!(statements(&source), ["p(a).", "p(c).", "q :- not p(b)."]);
        source.apply(&delta.rules[1..2], &delta.symbols, false);
        source.apply(&delta.rules[1..2], &delta.symbols, false);
        assert_eq!(statements(&source), ["p(c).", "q :- not p(b)."]);
    }

    #[test]
    fn index_survives_growth_and_removal_in_any_order() {
        let text: String = (0..500).map(|i| format!("e(k{i}).\n")).collect();
        let all = afp_datalog::parse_program(&text).unwrap();
        let mut source = SourceProgram::new(afp_datalog::Program::new());
        source.apply(&all.rules, &all.symbols, true);
        let rules: Vec<Rule> = all
            .rules
            .iter()
            .map(|r| import_rule(&mut source.program.symbols, r, &all.symbols))
            .collect();
        // Remove in a scrambled order; every survivor stays findable.
        let mut present = vec![true; rules.len()];
        for step in 0..rules.len() {
            let victim = (step * 7919) % rules.len();
            source.remove(&rules[victim]);
            present[victim] = false;
            for (rule, &here) in rules.iter().zip(&present) {
                assert_eq!(source.find(rule).is_ok(), here);
            }
        }
        assert!(source.program().rules.is_empty());
    }
}
