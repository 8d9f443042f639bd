//! A parser for the textual IR form produced by [`Function`]'s `Display`
//! implementation.
//!
//! The syntax round-trips exactly: `parse_function(&func.to_string())`
//! yields a function structurally equal to `func` (for functions whose
//! callee table is in first-appearance order — see
//! [`Function::with_canonical_callees`]), and `print → parse → print`
//! is a fixpoint. The grammar, line-oriented:
//!
//! ```text
//! fn NAME(v0: int, v1: float) -> int {     // or no "-> class"
//! b0:
//!     v2 = 5                                // iconst
//!     v3 = 1.5f                             // fconst (inff, NaNf, -0f ok)
//!     v4 = [v0+8]                           // int load
//!     v5 = f64[v0+8]                        // float load
//!     v6 = byte [v0+0]                      // byte load
//!     [v0+16] = v4                          // int store
//!     f64[v0+24] = v3                       // float store
//!     v7 = v4                               // copy
//!     v8 = add v4, v2                       // bin
//!     v9 = add v4, #3                       // bin with immediate
//!     v10 = call g(v4, v5)                  // int-returning call
//!     v11: float = call h()                 // float-returning call
//!     call k(v4)                            // void call
//!     v12 = phi [b0: v2], [b1: v8]          // φ (block head)
//!     v13 = frame[0]                        // int reload
//!     v14: float = frame[2]                 ; float reload (ascribed)
//!     frame[1] = v13                        // spill
//!     jump b1
//!     if ne v4, v2 goto b1 else b2
//!     if ne v4, #0 goto b1 else b2
//!     ret v8                                // or bare "ret"
//! }
//! ```
//!
//! Everything but vreg syntax, `jump`, `ret`, φ, the `f64[…]` and
//! ascription forms and class inference is the [`grammar`] the
//! machine-code parser shares. Comments run from `//` or `;` to end of
//! line. Negative offsets print as `[v0+-8]` and parse back. `NAME` and
//! callee names are validated identifiers
//! ([`validate_ident`](crate::validate_ident)), so every name that builds
//! also re-parses.
//!
//! Register classes are inferred: parameters and ascriptions are
//! explicit, loads/constants/operators are self-evident, and `ret` adopts
//! the signature's return class. Each line writes its evidence into one
//! table indexed by vreg; copies and φs then join vregs into webs in one
//! union-find pass, and each web takes its evidence class (`int` if it has
//! none). The result is [`Function::verify`]-checked before being
//! returned.
//!
//! A `.pdgc` file may hold several functions back to back;
//! [`parse_functions`] reads them all.

use crate::grammar::{
    self, addr, bin, block, branch, call, class, constant, fail, frame_slot, header, label, Const,
    Operand, ParseError, Rhs,
};
use crate::{BlockData, FuncSig, Function, Inst, Phi, RegClass, VReg};
use std::iter::Enumerate;
use std::str::Lines;

/// Parses the textual form of one function.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax, and converts any
/// [`VerifyError`](crate::VerifyError) on the assembled function into a
/// `ParseError` at line 0.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let mut p = Parser::new(text);
    let func = p.first()?;
    if let Some((ln, _)) = p.next_line() {
        return fail(ln, "trailing content after closing brace");
    }
    Ok(func)
}

/// Parses one or more functions from a `.pdgc` corpus text, back to
/// back.
///
/// # Errors
///
/// As [`parse_function`]; line numbers refer to the whole text.
pub fn parse_functions(text: &str) -> Result<Vec<Function>, ParseError> {
    let mut p = Parser::new(text);
    let mut funcs = vec![p.first()?];
    while let Some(header) = p.next_line() {
        funcs.push(p.parse_one(header)?);
    }
    Ok(funcs)
}

impl Operand for VReg {
    fn parse(ln: usize, s: &str) -> Result<VReg, ParseError> {
        let Some(n) = s.strip_prefix('v') else {
            return fail(ln, format!("expected a virtual register, got `{s}`"));
        };
        let Ok(i) = n.parse::<u32>() else {
            return fail(ln, format!("bad register `{s}`"));
        };
        Ok(VReg::new(i as usize))
    }
}

/// The class evidence one line's syntax gives: its ascription, then the
/// class its load, store or call spells.
type Evidence = [Option<(VReg, RegClass)>; 2];

struct Parser<'a> {
    lines: Enumerate<Lines<'a>>,
    /// Class evidence per vreg (per function); one entry past the highest
    /// vreg written.
    classes: Vec<Option<RegClass>>,
    /// Same-class constraints (copy and φ edges), joined after parsing.
    same: Vec<(usize, usize)>,
    /// The current function's return class (evidence for `ret vN`).
    ret_class: Option<RegClass>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().enumerate(),
            classes: Vec::new(),
            same: Vec::new(),
            ret_class: None,
        }
    }

    /// The next line with anything but a comment on it, numbered from 1.
    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        self.lines
            .by_ref()
            .map(|(i, l)| (i + 1, grammar::strip_comment(l).trim()))
            .find(|(_, l)| !l.is_empty())
    }

    /// Parses the text's first function; a text with none is an error.
    fn first(&mut self) -> Result<Function, ParseError> {
        match self.next_line() {
            Some(header) => self.parse_one(header),
            None => fail(0, "empty input"),
        }
    }

    fn parse_one(&mut self, (ln, line): (usize, &str)) -> Result<Function, ParseError> {
        // vreg 0 exists even in a function that names none.
        self.classes.clear();
        self.classes.push(None);
        self.same.clear();
        let mut params = Vec::new();
        let (name, ret) = header(ln, line, |part| {
            let Some((v, c)) = part.split_once(':') else {
                return fail(ln, format!("parameter `{part}` must be `vN: class`"));
            };
            params.push((VReg::parse(ln, v.trim())?, class(ln, c.trim())?));
            Ok(())
        })?;
        self.ret_class = ret;
        for &(v, c) in &params {
            self.note_class(ln, v, c)?;
        }

        let mut blocks: Vec<BlockData> = Vec::new();
        let mut callees: Vec<String> = Vec::new();
        loop {
            let Some((ln, line)) = self.next_line() else {
                return fail(0, "missing closing brace");
            };
            if line == "}" {
                break;
            }
            if label(ln, line, blocks.len())? {
                blocks.push(BlockData::default());
                continue;
            }
            let Some(current) = blocks.last_mut() else {
                return fail(ln, "instruction before any block label");
            };
            if current.insts.last().is_some_and(Inst::is_terminator) {
                return fail(ln, "instruction after terminator");
            }
            let mut evidence: Evidence = [None; 2];
            let parsed = parse_line(ln, line, &mut callees, &mut evidence)?;
            for (v, c) in evidence.into_iter().flatten() {
                self.note_class(ln, v, c)?;
            }
            match parsed {
                Parsed::Inst(inst) => {
                    self.note_inst(ln, &inst)?;
                    current.insts.push(inst);
                }
                Parsed::Phi(phi) => {
                    if !current.insts.is_empty() {
                        return fail(ln, "phi after a non-phi instruction");
                    }
                    for &(_, v) in &phi.args {
                        self.note_same(phi.dst, v);
                    }
                    current.phis.push(phi);
                }
            }
        }
        let func = Function {
            name: name.to_string(),
            sig: FuncSig {
                params: params.iter().map(|&(_, c)| c).collect(),
                ret,
            },
            param_vregs: params.iter().map(|&(v, _)| v).collect(),
            blocks,
            vreg_classes: join_webs(std::mem::take(&mut self.classes), &self.same)?,
            callees,
        };
        if let Err(e) = func.verify() {
            return fail(0, e.to_string());
        }
        Ok(func)
    }

    fn touch(&mut self, v: VReg) {
        if v.index() >= self.classes.len() {
            self.classes.resize(v.index() + 1, None);
        }
    }

    fn note_class(&mut self, ln: usize, v: VReg, c: RegClass) -> Result<(), ParseError> {
        self.touch(v);
        match self.classes[v.index()].replace(c) {
            Some(prev) if prev != c => fail(ln, format!("{v} used as both {prev} and {c}")),
            _ => Ok(()),
        }
    }

    fn note_same(&mut self, a: VReg, b: VReg) {
        self.touch(a);
        self.touch(b);
        self.same.push((a.index(), b.index()));
    }

    fn note_all(&mut self, ln: usize, vs: &[VReg], c: RegClass) -> Result<(), ParseError> {
        vs.iter().try_for_each(|&v| self.note_class(ln, v, c))
    }

    /// Records the class evidence an instruction's operation gives.
    fn note_inst(&mut self, ln: usize, inst: &Inst) -> Result<(), ParseError> {
        if let Some(d) = inst.def() {
            self.touch(d);
        }
        inst.visit_uses(|u| self.touch(u));
        let (int, float) = (RegClass::Int, RegClass::Float);
        match *inst {
            Inst::Copy { dst, src } => {
                self.note_same(dst, src);
                Ok(())
            }
            Inst::Iconst { dst, .. } => self.note_all(ln, &[dst], int),
            Inst::Fconst { dst, .. } => self.note_all(ln, &[dst], float),
            // A load's or store's value class came from its syntax.
            Inst::Load { base, .. } | Inst::Store { base, .. } => self.note_all(ln, &[base], int),
            Inst::Load8 { dst, base, .. } => self.note_all(ln, &[dst, base], int),
            Inst::Bin { op, dst, lhs, rhs } => {
                let c = if op.is_float() { float } else { int };
                self.note_all(ln, &[dst, lhs, rhs], c)
            }
            Inst::BinImm { dst, lhs, .. } => self.note_all(ln, &[dst, lhs], int),
            Inst::Branch { lhs, rhs, .. } => self.note_all(ln, &[lhs, rhs], int),
            Inst::BranchImm { lhs, .. } => self.note_all(ln, &[lhs], int),
            // The returned value adopts the signature's return class.
            Inst::Ret { value: Some(v) } => match self.ret_class {
                Some(c) => self.note_all(ln, &[v], c),
                None => Ok(()),
            },
            Inst::Call { .. }
            | Inst::Jump { .. }
            | Inst::Ret { value: None }
            | Inst::Reload { .. }
            | Inst::Spill { .. } => Ok(()),
        }
    }
}

/// Joins the vregs that copy and φ edges connect into webs, in one
/// union-find pass, and gives every vreg its web's evidence class, or
/// `int` (the default class) when the web has none. A web with evidence
/// for both classes is an error. The forest holds only the vregs the edges
/// name, numbered densely, so its size follows the input's, not the
/// largest vreg number.
fn join_webs(
    mut classes: Vec<Option<RegClass>>,
    same: &[(usize, usize)],
) -> Result<Vec<RegClass>, ParseError> {
    let mut vregs: Vec<usize> = same.iter().flat_map(|&(a, b)| [a, b]).collect();
    vregs.sort_unstable();
    vregs.dedup();
    let id = |v| vregs.binary_search(&v).expect("every endpoint is listed");
    let mut parent: Vec<usize> = (0..vregs.len()).collect();
    let find = |parent: &mut Vec<usize>, mut i: usize| {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    };
    for &(a, b) in same {
        let (ra, rb) = (find(&mut parent, id(a)), find(&mut parent, id(b)));
        let (ca, cb) = (classes[vregs[ra]], classes[vregs[rb]]);
        if ca.is_some() && cb.is_some() && ca != cb {
            let message = format!("v{a} and v{b} are constrained to different classes");
            return fail(0, message);
        }
        classes[vregs[ra]] = ca.or(cb);
        parent[rb] = ra;
    }
    for i in 0..vregs.len() {
        classes[vregs[i]] = classes[vregs[find(&mut parent, i)]];
    }
    Ok(classes.into_iter().map(Option::unwrap_or_default).collect())
}

enum Parsed {
    Inst(Inst),
    Phi(Phi),
}

/// Parses `[b+o]` (an int access) or `f64[b+o]` (a float one).
fn typed_addr(ln: usize, s: &str) -> Result<(VReg, i32, RegClass), ParseError> {
    let (s, c) = match s.strip_prefix("f64") {
        Some(s) => (s, RegClass::Float),
        None => (s, RegClass::Int),
    };
    let (base, offset) = addr(ln, s)?;
    Ok((base, offset, c))
}

fn parse_line(
    ln: usize,
    line: &str,
    callees: &mut Vec<String>,
    evidence: &mut Evidence,
) -> Result<Parsed, ParseError> {
    let inst = |i| Ok(Parsed::Inst(i));
    // Control flow.
    if let Some(t) = line.strip_prefix("jump ") {
        return inst(Inst::Jump {
            target: block(ln, t.trim())?,
        });
    }
    if line == "ret" {
        return inst(Inst::Ret { value: None });
    }
    if let Some(v) = line.strip_prefix("ret ") {
        return inst(Inst::Ret {
            value: Some(VReg::parse(ln, v.trim())?),
        });
    }
    if let Some(rest) = line.strip_prefix("if ") {
        let (op, lhs, rhs, then_dst, else_dst) = branch(ln, rest)?;
        return inst(match rhs {
            Rhs::Reg(rhs) => Inst::Branch {
                op,
                lhs,
                rhs,
                then_dst,
                else_dst,
            },
            Rhs::Imm(imm) => Inst::BranchImm {
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
        let (callee, args) = call(ln, c, callees)?;
        return inst(Inst::Call {
            callee,
            args,
            ret: None,
        });
    }
    // Stores: `[b+o] = v`, `f64[b+o] = v`, `frame[s] = v`.
    if line.starts_with('[') || line.starts_with("f64[") || line.starts_with("frame[") {
        let Some((addr_s, src_s)) = line.split_once('=') else {
            return fail(ln, "expected `=` in store");
        };
        let (addr_s, src_s) = (addr_s.trim(), src_s.trim());
        if let Some(slot) = frame_slot(ln, addr_s)? {
            return inst(Inst::Spill {
                src: VReg::parse(ln, src_s)?,
                slot,
            });
        }
        let (base, offset, c) = typed_addr(ln, addr_s)?;
        let src = VReg::parse(ln, src_s)?;
        evidence[1] = Some((src, c));
        return inst(Inst::Store { src, base, offset });
    }

    // Everything else defines a register: `vN[: class] = RHS`.
    let Some((lhs_s, rhs_s)) = line.split_once('=') else {
        return fail(ln, format!("unrecognized instruction `{line}`"));
    };
    let (lhs_s, rhs) = (lhs_s.trim(), rhs_s.trim());
    let (dst_s, ascription) = match lhs_s.split_once(':') {
        Some((d, c)) => (d.trim(), Some(class(ln, c.trim())?)),
        None => (lhs_s, None),
    };
    let dst = VReg::parse(ln, dst_s)?;
    evidence[0] = ascription.map(|c| (dst, c));

    // φ.
    if rhs == "phi" {
        // Printed by (invalid) empty φs; `Function::verify` rejects them
        // at build time, and the parser mirrors that with a specific
        // diagnostic rather than the generic unrecognized-RHS error.
        return fail(ln, "phi has no arguments");
    }
    if let Some(p) = rhs.strip_prefix("phi ") {
        let mut args = Vec::new();
        for part in p.split("],") {
            let part = part.trim().trim_start_matches('[').trim_end_matches(']');
            let Some((b, v)) = part.split_once(':') else {
                return fail(ln, format!("phi arg `{part}` must be `[bN: vM]`"));
            };
            args.push((block(ln, b.trim())?, VReg::parse(ln, v.trim())?));
        }
        return Ok(Parsed::Phi(Phi { dst, args }));
    }
    // Call with result: the ascription decides the class (default int).
    if let Some(c) = rhs.strip_prefix("call ") {
        let (callee, args) = call(ln, c, callees)?;
        evidence[1] = Some((dst, ascription.unwrap_or(RegClass::Int)));
        return inst(Inst::Call {
            callee,
            args,
            ret: Some(dst),
        });
    }
    if let Some(slot) = frame_slot(ln, rhs)? {
        return inst(Inst::Reload { dst, slot });
    }
    if let Some(a) = rhs.strip_prefix("byte ") {
        let (base, offset) = addr(ln, a.trim())?;
        return inst(Inst::Load8 { dst, base, offset });
    }
    if rhs.starts_with('[') || rhs.starts_with("f64[") {
        let (base, offset, c) = typed_addr(ln, rhs)?;
        evidence[1] = Some((dst, c));
        return inst(Inst::Load { dst, base, offset });
    }
    if let Some((op, lhs, rhs)) = bin(ln, rhs)? {
        return inst(match rhs {
            Rhs::Reg(rhs) => Inst::Bin { op, dst, lhs, rhs },
            Rhs::Imm(imm) => Inst::BinImm { op, dst, lhs, imm },
        });
    }
    match constant(ln, rhs)? {
        Some(Const::Int(value)) => inst(Inst::Iconst { dst, value }),
        Some(Const::Float(value)) => inst(Inst::Fconst { dst, value }),
        // Copy.
        None if rhs.starts_with('v') && !rhs.contains(' ') => inst(Inst::Copy {
            dst,
            src: VReg::parse(ln, rhs)?,
        }),
        None => fail(ln, format!("unrecognized right-hand side `{rhs}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, CmpOp, FunctionBuilder};
    use proptest::prelude::*;

    fn roundtrip(f: &Function) {
        let text = f.to_string();
        let parsed = parse_function(&text)
            .unwrap_or_else(|e| panic!("reparse of {} failed: {e}\n{text}", f.name));
        assert_eq!(&parsed, f, "round-trip mismatch for {}\n{text}", f.name);
        assert_eq!(parsed.to_string(), text, "print-parse-print not a fixpoint");
    }

    #[test]
    fn roundtrip_straight_line() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 8);
        let y = b.load8(p, 0);
        let s = b.bin(BinOp::Add, x, y);
        let t = b.bin_imm(BinOp::Mul, s, -3);
        b.store(t, p, 64);
        b.ret(Some(t));
        roundtrip(&b.finish());
    }

    #[test]
    fn roundtrip_floats_and_calls() {
        let mut b = FunctionBuilder::new("g", vec![RegClass::Float, RegClass::Int], None);
        let q = b.param(0);
        let p = b.param(1);
        let h = b.fconst(0.5);
        let m = b.bin(BinOp::FMul, q, h);
        b.store(m, p, 0);
        let fl = b.fload(p, 16);
        let r = b.call("sin", vec![fl], Some(RegClass::Float)).unwrap();
        let i = b.call("trunc", vec![r], Some(RegClass::Int)).unwrap();
        b.call("log", vec![i], None);
        b.ret(None);
        roundtrip(&b.finish());
    }

    #[test]
    fn roundtrip_control_flow_and_phi() {
        let mut b = FunctionBuilder::new("h", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        b.branch_imm(CmpOp::Ge, p, 10, t, e);
        b.switch_to(t);
        let a = b.iconst(1);
        b.jump(j);
        b.switch_to(e);
        let c = b.bin_imm(BinOp::Add, p, 1);
        b.jump(j);
        b.switch_to(j);
        let m = b.phi(RegClass::Int, vec![(t, a), (e, c)]);
        b.ret(Some(m));
        roundtrip(&b.finish());
    }

    #[test]
    fn roundtrip_branch_two_regs_and_spills() {
        let mut b = FunctionBuilder::new("k", vec![RegClass::Int, RegClass::Int], None);
        let p = b.param(0);
        let q = b.param(1);
        let t = b.create_block();
        let e = b.create_block();
        b.emit(Inst::Spill { src: p, slot: 3 });
        let r = b.new_vreg(RegClass::Int);
        b.emit(Inst::Reload { dst: r, slot: 3 });
        b.branch(CmpOp::Lt, r, q, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        roundtrip(&b.finish());
    }

    #[test]
    fn roundtrip_generated_workloads() {
        // The printer and parser must agree on everything the generator
        // can produce (pre-lowering, φs included).
        // Use a tiny custom program with comments stripped.
        let text = "\
fn demo(v0: int) -> int {   // header comment
b0:
    v1 = [v0+0]
    v2 = xor v1, #255
    ret v2
}";
        let f = parse_function(text).unwrap();
        assert_eq!(f.name, "demo");
        assert_eq!(f.num_insts(), 3);
        roundtrip(&f);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_function("fn f() {\nb0:\n    v0 = bogus v1\n}").unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse_function("not a function").unwrap_err();
        assert!(e.message.contains("fn"));
        let e = parse_function("fn f() {\nb0:\n    ret\n").unwrap_err();
        assert!(e.message.contains("closing brace"));
    }

    #[test]
    fn verify_failures_surface() {
        // Branch to an out-of-range block.
        let e = parse_function("fn f() {\nb0:\n    jump b7\n}").unwrap_err();
        assert!(e.message.contains("out-of-range"), "{e}");
    }

    #[test]
    fn roundtrip_float_reload_and_negative_offsets() {
        let mut b = FunctionBuilder::new("fr", vec![RegClass::Int], Some(RegClass::Float));
        let p = b.param(0);
        let x = b.fload(p, -8);
        b.emit(Inst::Spill { src: x, slot: 0 });
        let r = b.new_vreg(RegClass::Float);
        b.emit(Inst::Reload { dst: r, slot: 0 });
        b.store(r, p, -16);
        b.ret(Some(r));
        let f = b.finish();
        assert!(f.to_string().contains("v2: float = frame[0]"));
        assert!(f.to_string().contains("f64[v0+-16]"));
        roundtrip(&f);
    }

    #[test]
    fn ret_value_adopts_signature_class() {
        // Without the `ret` evidence the reload-defined web would
        // default to int and verification would reject the function.
        let text = "fn f() -> float {\nb0:\n    v0 = frame[0]\n    v1 = v0\n    ret v1\n}";
        let f = parse_function(text).unwrap();
        assert_eq!(f.class_of(VReg::new(0)), RegClass::Float);
        assert_eq!(f.class_of(VReg::new(1)), RegClass::Float);
        // The printer re-adds the float-reload ascription.
        assert!(f.to_string().contains("v0: float = frame[0]"));
        roundtrip(&f);
    }

    #[test]
    fn both_comment_forms_are_stripped() {
        let text = "\
fn c(v0: int) -> int {  ; machine-style comment
b0:
    v1 = add v0, #1     // ir-style comment
    ; a full-line comment
    // another
    ret v1
}";
        let f = parse_function(text).unwrap();
        assert_eq!(f.num_insts(), 2);
        roundtrip(&f);
    }

    #[test]
    fn multi_function_texts_parse() {
        let a = "fn a() {\nb0:\n    ret\n}";
        let b = "fn b(v0: int) -> int {\nb0:\n    ret v0\n}";
        let funcs = parse_functions(&format!("{a}\n\n{b}\n")).unwrap();
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].name, "a");
        assert_eq!(funcs[1].name, "b");
        // parse_function still rejects trailing content...
        let e = parse_function(&format!("{a}\n{b}")).unwrap_err();
        assert!(e.message.contains("trailing content"), "{e}");
        // ...and a malformed second function points at the right line.
        let e = parse_functions(&format!("{a}\nnot a function")).unwrap_err();
        assert_eq!(e.line, 5);
    }

    #[test]
    fn bad_float_constant_is_a_specific_error() {
        let e = parse_function("fn f() {\nb0:\n    v1 = 1..5f\n    ret\n}").unwrap_err();
        assert!(e.message.contains("bad float constant"), "{e}");
        assert_eq!(e.line, 3);
        let e = parse_function("fn f() {\nb0:\n    v1 = -1-2f\n    ret\n}").unwrap_err();
        assert!(e.message.contains("bad float constant"), "{e}");
    }

    #[test]
    fn nonfinite_float_constants_roundtrip() {
        let parse_const = |text: &str| {
            let f = parse_function(&format!("fn f() {{\nb0:\n    v0 = {text}\n    ret\n}}")).unwrap();
            let Inst::Fconst { value, .. } = f.blocks[0].insts[0] else {
                panic!("expected fconst from `{text}`");
            };
            (value, f.to_string())
        };
        let (v, text) = parse_const("inff");
        assert_eq!(v, f64::INFINITY);
        assert!(text.contains("v0 = inff"));
        let (v, text) = parse_const("-inff");
        assert_eq!(v, f64::NEG_INFINITY);
        assert!(text.contains("v0 = -inff"));
        // NaN breaks derived equality, so pin the printed fixpoint.
        let (v, text) = parse_const("NaNf");
        assert!(v.is_nan());
        assert!(text.contains("v0 = NaNf"));
        assert_eq!(parse_function(&text).unwrap().to_string(), text);
        // Negative zero keeps its sign bit.
        let (v, text) = parse_const("-0f");
        assert_eq!(v, 0.0);
        assert!(v.is_sign_negative());
        assert!(text.contains("v0 = -0f"));
    }

    #[test]
    fn empty_phi_is_a_specific_error() {
        let e = parse_function("fn f() {\nb0:\n    v0 = phi\n    ret\n}").unwrap_err();
        assert!(e.message.contains("phi has no arguments"), "{e}");
    }

    #[test]
    fn unparseable_names_are_rejected_with_position() {
        let e = parse_function("fn two words() {\nb0:\n    ret\n}").unwrap_err();
        assert!(e.message.contains("function name"), "{e}");
        assert_eq!(e.line, 1);
        let e = parse_function("fn f() {\nb0:\n    call 9g(v0)\n    ret\n}").unwrap_err();
        assert!(e.message.contains("callee name"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn float_call_needs_ascription() {
        let text = "\
fn f(v0: int) {
b0:
    v1: float = call sin()
    f64[v0+0] = v1
    ret
}";
        let f = parse_function(text).unwrap();
        assert_eq!(f.class_of(VReg::new(1)), RegClass::Float);
    }

    /// The class inference this parser ran before it joined webs with
    /// union-find, kept as the specification: re-walk every copy and φ edge
    /// until nothing changes. `None` when a web holds both classes.
    fn fixpoint_sweep(
        mut classes: Vec<Option<RegClass>>,
        same: &[(usize, usize)],
    ) -> Option<Vec<Option<RegClass>>> {
        let mut changed = true;
        while changed {
            changed = false;
            for &(a, b) in same {
                match (classes[a], classes[b]) {
                    (Some(ca), Some(cb)) if ca != cb => return None,
                    (Some(c), None) => {
                        classes[b] = Some(c);
                        changed = true;
                    }
                    (None, Some(c)) => {
                        classes[a] = Some(c);
                        changed = true;
                    }
                    _ => {}
                }
            }
        }
        Some(classes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn union_find_matches_the_fixpoint_sweep(
            evidence in proptest::collection::vec(0usize..5, 1..24),
            edges in proptest::collection::vec((0usize..24, 0usize..24), 0..32),
        ) {
            let class = [None, None, None, Some(RegClass::Int), Some(RegClass::Float)];
            let classes: Vec<_> = evidence.iter().map(|&e| class[e]).collect();
            let n = classes.len();
            let same: Vec<_> = edges.iter().map(|&(a, b)| (a % n, b % n)).collect();
            let sweep = fixpoint_sweep(classes.clone(), &same)
                .map(|c| c.into_iter().map(|c| c.unwrap_or(RegClass::Int)).collect());
            prop_assert_eq!(join_webs(classes, &same).ok(), sweep);
        }
    }

    #[test]
    fn a_long_copy_chain_with_evidence_at_its_far_end_parses() {
        // Each copy's edge comes after the one it copies from, and the only
        // evidence is the last vreg's return class: the sweep above needs
        // one pass per link here, union-find one pass in all.
        const LINKS: usize = 20_000;
        let mut text = String::from("fn chain() -> float {\nb0:\n    v0 = frame[0]\n");
        for i in 1..=LINKS {
            text.push_str(&format!("    v{i} = v{}\n", i - 1));
        }
        text.push_str(&format!("    ret v{LINKS}\n}}"));
        let f = parse_function(&text).unwrap();
        assert_eq!(f.vreg_classes, vec![RegClass::Float; LINKS + 1]);
    }
}
