//! Execution outcomes and differential comparison.

use std::collections::BTreeMap;
use std::fmt;

/// One observed call: which callee (by name), with which argument bit
/// patterns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CallRecord {
    /// Callee name.
    pub callee: String,
    /// Argument values at the call, in order.
    pub args: Vec<u64>,
}

/// The observable result of executing a function.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecOutcome {
    /// Returned value bits, if the function returns one.
    pub ret: Option<u64>,
    /// Every call, in execution order.
    pub calls: Vec<CallRecord>,
    /// Final memory contents (only addresses ever written).
    pub memory: BTreeMap<i64, u64>,
    /// Instructions executed.
    pub steps: u64,
    /// Simulated cycles (cost-model weighted; includes prologue/epilogue
    /// for machine execution).
    pub cycles: u64,
}

/// Execution failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The fuel budget was exhausted (probable infinite loop).
    OutOfFuel {
        /// The executing function.
        func: String,
    },
    /// Argument count didn't match the signature.
    BadArity {
        /// The executing function.
        func: String,
        /// Arguments expected.
        expected: usize,
        /// Arguments given.
        given: usize,
    },
    /// A virtual register was read before any write (IR interpreter only;
    /// indicates malformed input, not an allocation bug).
    UndefinedRead {
        /// The executing function.
        func: String,
        /// Description of the offending read.
        what: String,
    },
    /// Machine code stored to or reloaded from a slot outside its frame
    /// (machine interpreter only; indicates broken frame bookkeeping).
    SlotOutOfFrame {
        /// The executing function.
        func: String,
        /// The slot accessed.
        slot: u32,
        /// The frame size (`MachFunction::num_slots`).
        num_slots: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel { func } => write!(f, "{func}: out of fuel"),
            ExecError::BadArity {
                func,
                expected,
                given,
            } => write!(f, "{func}: expected {expected} arguments, got {given}"),
            ExecError::UndefinedRead { func, what } => {
                write!(f, "{func}: read of undefined {what}")
            }
            ExecError::SlotOutOfFrame {
                func,
                slot,
                num_slots,
            } => write!(
                f,
                "{func}: frame slot {slot} is outside the {num_slots}-slot frame"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Compares the reference (IR) execution with the allocated (machine)
/// execution. Cycles and step counts are allowed to differ; the return
/// value, the call trace, and the final memory must match.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence.
pub fn check_equivalent(reference: &ExecOutcome, allocated: &ExecOutcome) -> Result<(), String> {
    if reference.ret != allocated.ret {
        return Err(format!(
            "return value differs: reference {:?}, allocated {:?}",
            reference.ret, allocated.ret
        ));
    }
    if reference.calls.len() != allocated.calls.len() {
        return Err(format!(
            "call count differs: reference {}, allocated {}",
            reference.calls.len(),
            allocated.calls.len()
        ));
    }
    for (i, (a, b)) in reference.calls.iter().zip(&allocated.calls).enumerate() {
        if a != b {
            return Err(format!(
                "call #{i} differs: reference {a:?}, allocated {b:?}"
            ));
        }
    }
    if reference.memory != allocated.memory {
        for (addr, v) in &reference.memory {
            match allocated.memory.get(addr) {
                Some(w) if w == v => {}
                other => {
                    return Err(format!(
                        "memory[{addr}] differs: reference {v:#x}, allocated {other:?}"
                    ))
                }
            }
        }
        for addr in allocated.memory.keys() {
            if !reference.memory.contains_key(addr) {
                return Err(format!("allocated wrote unexpected memory[{addr}]"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ret: Option<u64>) -> ExecOutcome {
        ExecOutcome {
            ret,
            calls: vec![],
            memory: BTreeMap::new(),
            steps: 1,
            cycles: 2,
        }
    }

    #[test]
    fn equal_outcomes_pass() {
        let a = outcome(Some(7));
        let mut b = outcome(Some(7));
        b.cycles = 99; // cycles may differ
        b.steps = 42;
        assert!(check_equivalent(&a, &b).is_ok());
    }

    #[test]
    fn return_divergence_reported() {
        let a = outcome(Some(7));
        let b = outcome(Some(8));
        let err = check_equivalent(&a, &b).unwrap_err();
        assert!(err.contains("return value"));
    }

    #[test]
    fn call_divergence_reported() {
        let mut a = outcome(None);
        let mut b = outcome(None);
        a.calls.push(CallRecord {
            callee: "g".into(),
            args: vec![1],
        });
        b.calls.push(CallRecord {
            callee: "g".into(),
            args: vec![2],
        });
        assert!(check_equivalent(&a, &b).unwrap_err().contains("call #0"));
    }

    #[test]
    fn memory_divergence_reported() {
        let mut a = outcome(None);
        let mut b = outcome(None);
        a.memory.insert(8, 1);
        b.memory.insert(8, 2);
        assert!(check_equivalent(&a, &b).unwrap_err().contains("memory[8]"));
        let c = outcome(None);
        let mut d = outcome(None);
        d.memory.insert(16, 5);
        assert!(check_equivalent(&c, &d)
            .unwrap_err()
            .contains("unexpected memory[16]"));
    }
}
