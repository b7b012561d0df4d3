//! The output check: the server's final `model` against a cold solve of
//! the generated program plus the final delta set.
//!
//! True and undefined sets must match exactly. False atoms are compared
//! only on the cold program's atoms: a warm session keeps atoms that
//! retracted facts introduced as explicitly false, which a cold load of
//! the same final program never interns.

use std::collections::BTreeSet;

use crate::json::Json;

#[derive(Debug, Default, PartialEq, Eq)]
pub struct ModelSets {
    pub t: BTreeSet<String>,
    pub f: BTreeSet<String>,
    pub u: BTreeSet<String>,
}

impl ModelSets {
    pub fn from_json(model: &Json) -> Result<ModelSets, String> {
        let list = |key: &str| -> Result<BTreeSet<String>, String> {
            model
                .get(key)
                .and_then(Json::arr)
                .ok_or_else(|| format!("model reply lacks {key:?}"))?
                .iter()
                .map(|a| {
                    a.str()
                        .map(str::to_string)
                        .ok_or("non-string atom".to_string())
                })
                .collect()
        };
        Ok(ModelSets {
            t: list("true")?,
            f: list("false")?,
            u: list("undefined")?,
        })
    }

    pub fn from_model(model: &afp::Model) -> ModelSets {
        ModelSets {
            t: model.true_atoms().collect(),
            f: model.false_atoms().collect(),
            u: model.undefined_atoms().collect(),
        }
    }

    pub fn atoms(&self) -> usize {
        self.t.len() + self.f.len() + self.u.len()
    }
}

/// `Ok` when the warm model agrees with the cold one.
pub fn compare(warm: &ModelSets, cold: &ModelSets) -> Result<(), String> {
    let diff = |what: &str, a: &BTreeSet<String>, b: &BTreeSet<String>| -> Result<(), String> {
        let only_warm: Vec<&String> = a.difference(b).take(3).collect();
        let only_cold: Vec<&String> = b.difference(a).take(3).collect();
        if only_warm.is_empty() && only_cold.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{what} atoms differ: warm only {only_warm:?}, cold only {only_cold:?}"
            ))
        }
    };
    diff("true", &warm.t, &cold.t)?;
    diff("undefined", &warm.u, &cold.u)?;
    let missing: Vec<&String> = cold.f.difference(&warm.f).take(3).collect();
    if !missing.is_empty() {
        return Err(format!("cold-false atoms not false warm: {missing:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp::net::codec;
    use afp::Engine;

    const SRC: &str = "a(K) :- e(K), not b(K). b(K) :- e(K), not a(K), not c(K). \
                       c(K) :- d(K). e(k1). e(k2). d(k1).";

    fn warm_model_after(deltas: &[(&str, bool)]) -> ModelSets {
        let service = Engine::default().serve(SRC).unwrap();
        for (fact, assert) in deltas {
            if *assert {
                service.assert_facts(fact).unwrap();
            } else {
                service.retract_facts(fact).unwrap();
            }
        }
        let snap = service.snapshot();
        let wire = codec::model_json(snap.version(), snap.model());
        ModelSets::from_json(&crate::json::parse(&wire).unwrap()).unwrap()
    }

    fn cold(src: &str) -> ModelSets {
        ModelSets::from_model(&Engine::default().solve(src).unwrap())
    }

    #[test]
    fn warm_history_matches_cold_final_program() {
        // d(k2) asserted then retracted leaves d(k2) as a warm-only false
        // atom: tolerated. d(k1) retracted flips k1 to undefined.
        let warm = warm_model_after(&[("d(k2).", true), ("d(k2).", false), ("d(k1).", false)]);
        let cold = cold(
            "a(K) :- e(K), not b(K). b(K) :- e(K), not a(K), not c(K). \
             c(K) :- d(K). e(k1). e(k2).",
        );
        assert!(warm.f.contains("d(k2)") && !cold.f.contains("d(k2)"));
        assert_eq!(compare(&warm, &cold), Ok(()));
    }

    #[test]
    fn a_wrong_final_state_is_caught() {
        let warm = warm_model_after(&[("d(k2).", true)]);
        let stale = cold(SRC);
        let err = compare(&warm, &stale).unwrap_err();
        assert!(err.contains("true atoms differ"), "{err}");

        let mut lost_false = cold(SRC);
        let warm = cold(SRC);
        lost_false.f.insert("zz".into());
        assert!(compare(&warm, &lost_false)
            .unwrap_err()
            .contains("cold-false"));
    }
}
