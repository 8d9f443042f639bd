//! A parser for the textual machine-code form produced by
//! [`MachFunction`]'s `Display` implementation — dual to it, so
//! post-allocation golden files and corpus round-trip checks are
//! possible.
//!
//! The grammar, line-oriented:
//!
//! ```text
//! fn NAME(int, float) -> int {   ; or no "-> class"
//!     ; frame: 2 slots           ; structure, not a comment
//!     ; saves: r9 f8             ; structure, not a comment
//! b0:
//!     r1 = r0                    ; copy
//!     r2 = 5                     ; iconst
//!     f0 = 1.5f                  ; fconst (inff, NaNf, -0f ok)
//!     r3 = [r0+8]                ; load (negative offsets: [r0+-8])
//!     r4 = byte [r0+0]           ; byte load
//!     r5, r6 = pair [r0+0], [r0+8]
//!     [r0+16] = r3               ; store
//!     r7 = add r3, r2            ; bin
//!     r7 = add r3, #3            ; bin with immediate
//!     r0 = call g(r0, f0)        ; result register optional
//!     r1 = frame[0]              ; spill reload
//!     frame[1] = r1              ; spill store
//!     goto b1
//!     if ne r1, r2 goto b1 else b2
//!     if ne r1, #0 goto b1 else b2
//!     ret
//! b1:
//! b2:
//!     ret
//! }
//! ```
//!
//! Registers are written `rN` (integer class) and `fN` (float class), so
//! the form is self-classifying and no inference is needed. Everything
//! but register syntax, `goto`, the `; frame:` and `; saves:` header
//! lines, `pair` loads and the branch-range check is the grammar the IR
//! parser shares ([`pdgc_ir::grammar`]). The header lines are parsed as
//! structure when they appear before the first block label; everywhere
//! else both `;` and `//` start a comment. Callee names are interned in
//! order of appearance, which makes `parse_mach_function(&m.to_string())`
//! print back byte-identically and re-parse to a structurally equal
//! function.

use crate::{MInst, MachFunction, PhysReg};
use pdgc_ir::grammar::{
    addr, bin, block, branch, call, class, constant, fail, frame_slot, header, label,
    strip_comment, Const, Operand, Rhs,
};
use pdgc_ir::{FuncSig, ParseError, RegClass};

impl Operand for PhysReg {
    fn parse(ln: usize, s: &str) -> Result<PhysReg, ParseError> {
        let (class, digits) = if let Some(d) = s.strip_prefix('r') {
            (RegClass::Int, d)
        } else if let Some(d) = s.strip_prefix('f') {
            (RegClass::Float, d)
        } else {
            return fail(ln, format!("expected a register (`rN` or `fN`), got `{s}`"));
        };
        let Ok(idx) = digits.parse() else {
            return fail(ln, format!("bad register `{s}`"));
        };
        Ok(PhysReg::new(class, idx))
    }
}

/// Parses the textual form of one allocated function.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax or out-of-range block
/// references.
pub fn parse_mach_function(text: &str) -> Result<MachFunction, ParseError> {
    let mut mach = MachFunction {
        name: String::new(),
        sig: FuncSig::default(),
        blocks: Vec::new(),
        num_slots: 0,
        used_nonvolatiles: Vec::new(),
        callees: Vec::new(),
    };
    let mut saw_header = false;
    let mut saw_frame = false;
    let mut saw_saves = false;
    let mut closed_at: Option<usize> = None;
    let mut in_block = false;

    for (ln, raw) in text.lines().enumerate().map(|(i, l)| (i + 1, l)) {
        let trimmed = raw.trim();
        if let Some(end) = closed_at {
            if !strip_comment(trimmed).trim().is_empty() {
                return fail(
                    ln,
                    format!("trailing content after closing brace (line {end})"),
                );
            }
            continue;
        }
        // The `; frame:` / `; saves:` lines between the header and the
        // first block label are structure; elsewhere `;` starts a
        // comment.
        if saw_header && !in_block {
            if let Some(rest) = trimmed.strip_prefix("; frame:") {
                if saw_frame {
                    return fail(ln, "duplicate `; frame:` header");
                }
                saw_frame = true;
                let n = rest.trim().strip_suffix("slots").map(str::trim);
                let Some(n) = n.and_then(|x| x.parse().ok()) else {
                    return fail(ln, format!("expected `; frame: N slots`, got `{trimmed}`"));
                };
                mach.num_slots = n;
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix("; saves:") {
                if saw_saves {
                    return fail(ln, "duplicate `; saves:` header");
                }
                saw_saves = true;
                for r in rest.split_whitespace() {
                    mach.used_nonvolatiles.push(PhysReg::parse(ln, r)?);
                }
                continue;
            }
        }
        let line = strip_comment(trimmed).trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            let mut params = Vec::new();
            let (name, ret) = header(ln, line, |part| {
                params.push(class(ln, part.trim())?);
                Ok(())
            })?;
            mach.name = name.to_string();
            mach.sig = FuncSig { params, ret };
            saw_header = true;
            continue;
        }
        if line == "}" {
            closed_at = Some(ln);
            continue;
        }
        if label(ln, line, mach.blocks.len())? {
            mach.blocks.push(Vec::new());
            in_block = true;
            continue;
        }
        if !in_block {
            return fail(ln, "instruction before any block label");
        }
        let inst = parse_line(ln, line, &mut mach.callees)?;
        mach.blocks.last_mut().unwrap().push(inst);
    }

    if !saw_header {
        return fail(0, "empty input");
    }
    if closed_at.is_none() {
        return fail(0, "missing closing brace");
    }
    if mach.blocks.is_empty() {
        return fail(0, "function has no blocks");
    }
    // Post-pass: every block reference must be in range.
    for (b, insts) in mach.blocks.iter().enumerate() {
        for inst in insts {
            let targets = match *inst {
                MInst::Jump { target } => [target, target],
                MInst::Branch {
                    then_dst, else_dst, ..
                }
                | MInst::BranchImm {
                    then_dst, else_dst, ..
                } => [then_dst, else_dst],
                _ => continue,
            };
            if let Some(t) = targets.into_iter().find(|t| t.index() >= mach.blocks.len()) {
                return fail(0, format!("block b{b} branches to out-of-range {t}"));
            }
        }
    }
    Ok(mach)
}

fn parse_line(ln: usize, line: &str, callees: &mut Vec<String>) -> Result<MInst, ParseError> {
    // Control flow.
    if let Some(t) = line.strip_prefix("goto ") {
        return Ok(MInst::Jump {
            target: block(ln, t.trim())?,
        });
    }
    if line == "ret" {
        return Ok(MInst::Ret);
    }
    if let Some(rest) = line.strip_prefix("if ") {
        let (op, lhs, rhs, then_dst, else_dst) = branch(ln, rest)?;
        return Ok(match rhs {
            Rhs::Reg(rhs) => MInst::Branch {
                op,
                lhs,
                rhs,
                then_dst,
                else_dst,
            },
            Rhs::Imm(imm) => MInst::BranchImm {
                op,
                lhs,
                imm,
                then_dst,
                else_dst,
            },
        });
    }
    // Void call.
    if let Some(c) = line.strip_prefix("call ") {
        let (callee, arg_regs) = call(ln, c, callees)?;
        return Ok(MInst::Call {
            callee,
            arg_regs,
            ret_reg: None,
        });
    }
    // Stores: `[base+off] = reg`, `frame[slot] = reg`.
    if line.starts_with('[') || line.starts_with("frame[") {
        let Some((addr_s, src_s)) = line.split_once('=') else {
            return fail(ln, "expected `=` in store");
        };
        let addr_s = addr_s.trim();
        let src = PhysReg::parse(ln, src_s.trim())?;
        if let Some(slot) = frame_slot(ln, addr_s)? {
            return Ok(MInst::SpillStore { src, slot });
        }
        let (base, offset) = addr(ln, addr_s)?;
        return Ok(MInst::Store { src, base, offset });
    }

    // Everything else defines registers: `REG[, REG] = RHS`.
    let Some((lhs_s, rhs_s)) = line.split_once('=') else {
        return fail(ln, format!("unrecognized instruction `{line}`"));
    };
    let (lhs_s, rhs) = (lhs_s.trim(), rhs_s.trim());

    // Paired load: `r1, r2 = pair [r0+0], [r0+8]`.
    if let Some((d1, d2)) = lhs_s.split_once(',') {
        let Some(addrs) = rhs.strip_prefix("pair ") else {
            return fail(ln, "two destinations require a `pair` load");
        };
        let dst1 = PhysReg::parse(ln, d1.trim())?;
        let dst2 = PhysReg::parse(ln, d2.trim())?;
        let Some(mid) = addrs.find("], ") else {
            return fail(ln, "expected two addresses in `pair`");
        };
        let (base, offset) = addr(ln, addrs[..=mid].trim())?;
        let (base2, offset2) = addr::<PhysReg>(ln, addrs[mid + 3..].trim())?;
        if base2 != base {
            return fail(ln, "paired load reads from two different bases");
        }
        return Ok(MInst::LoadPair {
            dst1,
            dst2,
            base,
            offset,
            offset2,
        });
    }

    let dst = PhysReg::parse(ln, lhs_s)?;
    // Call with result.
    if let Some(c) = rhs.strip_prefix("call ") {
        let (callee, arg_regs) = call(ln, c, callees)?;
        return Ok(MInst::Call {
            callee,
            arg_regs,
            ret_reg: Some(dst),
        });
    }
    if let Some(slot) = frame_slot(ln, rhs)? {
        return Ok(MInst::SpillLoad { dst, slot });
    }
    if let Some(a) = rhs.strip_prefix("byte ") {
        let (base, offset) = addr(ln, a.trim())?;
        return Ok(MInst::Load8 { dst, base, offset });
    }
    if rhs.starts_with('[') {
        let (base, offset) = addr(ln, rhs)?;
        return Ok(MInst::Load { dst, base, offset });
    }
    if let Some((op, lhs, rhs)) = bin(ln, rhs)? {
        return Ok(match rhs {
            Rhs::Reg(rhs) => MInst::Bin { op, dst, lhs, rhs },
            Rhs::Imm(imm) => MInst::BinImm { op, dst, lhs, imm },
        });
    }
    match constant(ln, rhs)? {
        Some(Const::Int(value)) => Ok(MInst::Iconst { dst, value }),
        Some(Const::Float(value)) => Ok(MInst::Fconst { dst, value }),
        // Copy.
        None if (rhs.starts_with('r') || rhs.starts_with('f')) && !rhs.contains(' ') => {
            Ok(MInst::Copy {
                dst,
                src: PhysReg::parse(ln, rhs)?,
            })
        }
        None => fail(ln, format!("unrecognized right-hand side `{rhs}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, Block, CalleeId, CmpOp};

    fn roundtrip(m: &MachFunction) {
        let text = m.to_string();
        let parsed = parse_mach_function(&text)
            .unwrap_or_else(|e| panic!("reparse of {} failed: {e}\n{text}", m.name));
        assert_eq!(&parsed, m, "round-trip mismatch for {}\n{text}", m.name);
        assert_eq!(parsed.to_string(), text, "print-parse-print not a fixpoint");
    }

    fn sample() -> MachFunction {
        MachFunction {
            name: "f".into(),
            sig: FuncSig {
                params: vec![RegClass::Int, RegClass::Float],
                ret: Some(RegClass::Int),
            },
            blocks: vec![
                vec![
                    MInst::LoadPair {
                        dst1: PhysReg::int(1),
                        dst2: PhysReg::int(2),
                        base: PhysReg::int(0),
                        offset: -8,
                        offset2: 0,
                    },
                    MInst::Copy {
                        dst: PhysReg::float(1),
                        src: PhysReg::float(0),
                    },
                    MInst::Fconst {
                        dst: PhysReg::float(2),
                        value: 0.5,
                    },
                    MInst::Bin {
                        op: BinOp::FMul,
                        dst: PhysReg::float(1),
                        lhs: PhysReg::float(1),
                        rhs: PhysReg::float(2),
                    },
                    MInst::Iconst {
                        dst: PhysReg::int(3),
                        value: -7,
                    },
                    MInst::BinImm {
                        op: BinOp::Shl,
                        dst: PhysReg::int(3),
                        lhs: PhysReg::int(3),
                        imm: 2,
                    },
                    MInst::Load8 {
                        dst: PhysReg::int(4),
                        base: PhysReg::int(0),
                        offset: 3,
                    },
                    MInst::Store {
                        src: PhysReg::int(4),
                        base: PhysReg::int(0),
                        offset: 16,
                    },
                    MInst::SpillStore {
                        src: PhysReg::int(1),
                        slot: 0,
                    },
                    MInst::Call {
                        callee: CalleeId::new(0),
                        arg_regs: vec![PhysReg::int(1), PhysReg::float(1)],
                        ret_reg: Some(PhysReg::int(0)),
                    },
                    MInst::SpillLoad {
                        dst: PhysReg::int(1),
                        slot: 0,
                    },
                    MInst::BranchImm {
                        op: CmpOp::Ne,
                        lhs: PhysReg::int(1),
                        imm: 0,
                        then_dst: Block::new(1),
                        else_dst: Block::new(2),
                    },
                ],
                vec![
                    MInst::Load {
                        dst: PhysReg::int(0),
                        base: PhysReg::int(1),
                        offset: 0,
                    },
                    MInst::Branch {
                        op: CmpOp::Lt,
                        lhs: PhysReg::int(0),
                        rhs: PhysReg::int(3),
                        then_dst: Block::new(1),
                        else_dst: Block::new(2),
                    },
                ],
                vec![
                    MInst::Call {
                        callee: CalleeId::new(1),
                        arg_regs: vec![],
                        ret_reg: None,
                    },
                    MInst::Jump {
                        target: Block::new(3),
                    },
                ],
                vec![MInst::Ret],
            ],
            num_slots: 1,
            used_nonvolatiles: vec![PhysReg::int(2), PhysReg::float(1)],
            callees: vec!["g".into(), "log".into()],
        }
    }

    #[test]
    fn roundtrip_every_minst_variant() {
        roundtrip(&sample());
    }

    #[test]
    fn roundtrip_minimal_function() {
        let m = MachFunction {
            name: "nop".into(),
            sig: FuncSig::default(),
            blocks: vec![vec![MInst::Ret]],
            num_slots: 0,
            used_nonvolatiles: vec![],
            callees: vec![],
        };
        let text = m.to_string();
        assert!(!text.contains("frame:"));
        assert!(!text.contains("saves:"));
        roundtrip(&m);
    }

    #[test]
    fn frame_and_saves_parse_as_structure() {
        let m = parse_mach_function(
            "fn f() {\n    ; frame: 3 slots\n    ; saves: r9 f8\nb0:\n    ret\n}",
        )
        .unwrap();
        assert_eq!(m.num_slots, 3);
        assert_eq!(m.used_nonvolatiles, vec![PhysReg::int(9), PhysReg::float(8)]);
    }

    #[test]
    fn comments_are_stripped_in_both_forms() {
        let m = parse_mach_function(
            "fn f() { // header comment\nb0:\n    r0 = 1 ; trailing\n    // full line\n    ; also full line\n    ret\n}",
        )
        .unwrap();
        assert_eq!(m.blocks[0].len(), 2);
    }

    #[test]
    fn nonfinite_float_constants_roundtrip() {
        for (text, check) in [
            ("inff", f64::is_infinite as fn(f64) -> bool),
            ("NaNf", f64::is_nan),
            ("-0f", f64::is_sign_negative),
        ] {
            let src = format!("fn f() {{\nb0:\n    f0 = {text}\n    ret\n}}");
            let m = parse_mach_function(&src).unwrap();
            let MInst::Fconst { value, .. } = m.blocks[0][0] else {
                panic!("expected fconst from `{text}`");
            };
            assert!(check(value), "{text}");
            // The printed fixpoint (NaN breaks derived equality).
            let printed = m.to_string();
            assert!(printed.contains(&format!("f0 = {text}")));
            assert_eq!(parse_mach_function(&printed).unwrap().to_string(), printed);
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_mach_function("fn f() {\nb0:\n    r0 = bogus r1\n}").unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse_mach_function("not machine code").unwrap_err();
        assert!(e.message.contains("fn"));
        let e = parse_mach_function("fn f() {\nb0:\n    ret\n").unwrap_err();
        assert!(e.message.contains("closing brace"));
        let e = parse_mach_function("fn f() {\nb0:\n    ret\n}\nfn g() {\n}").unwrap_err();
        assert!(e.message.contains("trailing content"));
        let e = parse_mach_function("fn f() {\nb0:\n    f0 = 1..5f\n    ret\n}").unwrap_err();
        assert!(e.message.contains("bad float constant"), "{e}");
    }

    #[test]
    fn structural_errors_are_rejected() {
        // Out-of-range branch target.
        let e = parse_mach_function("fn f() {\nb0:\n    goto b7\n}").unwrap_err();
        assert!(e.message.contains("out-of-range"), "{e}");
        // Blocks out of order.
        let e = parse_mach_function("fn f() {\nb1:\n    ret\n}").unwrap_err();
        assert!(e.message.contains("in order"), "{e}");
        // Mismatched pair bases.
        let e = parse_mach_function(
            "fn f() {\nb0:\n    r1, r2 = pair [r0+0], [r3+8]\n    ret\n}",
        )
        .unwrap_err();
        assert!(e.message.contains("different bases"), "{e}");
        // Instruction before any label.
        let e = parse_mach_function("fn f() {\n    r0 = 1\nb0:\n    ret\n}").unwrap_err();
        assert!(e.message.contains("before any block"), "{e}");
        // Bad callee name.
        let e = parse_mach_function("fn f() {\nb0:\n    call 9g()\n    ret\n}").unwrap_err();
        assert!(e.message.contains("callee name"), "{e}");
    }

    #[test]
    fn callees_intern_in_appearance_order() {
        let m = parse_mach_function(
            "fn f() {\nb0:\n    call b_second()\n    call a_first()\n    call b_second()\n    ret\n}",
        )
        .unwrap();
        assert_eq!(m.callees, vec!["b_second".to_string(), "a_first".to_string()]);
    }
}
