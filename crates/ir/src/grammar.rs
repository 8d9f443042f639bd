//! The grammar both text forms share. The IR ([`parse_function`]) and
//! the allocated machine code (`pdgc_target::parse_mach_function`) are
//! line-oriented duals that differ only in operand syntax (`vN`, or
//! `rN`/`fN`) and in the instruction each line builds. Every leaf here
//! parses one construct for any [`Operand`] and returns its parts; each
//! parser maps them to its own instruction type. A leaf borrows from its
//! line and allocates only what it keeps (a call's argument list, a new
//! callee's name) and, on failure, its message.
//!
//! [`parse_function`]: crate::parse_function

use crate::{validate_ident, BinOp, Block, CalleeId, CmpOp, RegClass};
use std::fmt;

/// A parse failure, with a 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Line the error was found on (1-based; 0 = whole input).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A [`ParseError`] at `line` with `message`.
pub fn fail<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// A register operand as one text form spells it.
pub trait Operand: Sized {
    /// Parses one trimmed operand found on line `ln`.
    fn parse(ln: usize, s: &str) -> Result<Self, ParseError>;
}

/// A right-hand operand: a register or a `#` immediate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rhs<R> {
    /// A register.
    Reg(R),
    /// An immediate.
    Imm(i64),
}

/// A constant right-hand side.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Const {
    /// An integer, `5`.
    Int(i64),
    /// A float, `1.5f` (also `inff`, `NaNf`, `-0f`).
    Float(f64),
}

/// Strips a trailing comment: both `//` (the IR form) and `;` (the
/// machine-code form) start one.
pub fn strip_comment(line: &str) -> &str {
    let cut = line.find("//").into_iter().chain(line.find(';')).min();
    &line[..cut.unwrap_or(line.len())]
}

/// Parses a block label, `bN`.
pub fn block(ln: usize, s: &str) -> Result<Block, ParseError> {
    let Some(n) = s.strip_prefix('b') else {
        return fail(ln, format!("expected a block label, got `{s}`"));
    };
    let Ok(i) = n.parse::<u32>() else {
        return fail(ln, format!("bad block `{s}`"));
    };
    Ok(Block::new(i as usize))
}

/// Whether `line` declares a block, `bN:`. Blocks are declared in index
/// order, so any label but `next`'s is an error.
pub fn label(ln: usize, line: &str, next: usize) -> Result<bool, ParseError> {
    let Some(label) = line.strip_suffix(':') else {
        return Ok(false);
    };
    if block(ln, label)?.index() != next {
        let message = format!("blocks must be declared in order; expected b{next}");
        return fail(ln, message);
    }
    Ok(true)
}

/// Parses a register class, `int` or `float`.
pub fn class(ln: usize, s: &str) -> Result<RegClass, ParseError> {
    match s {
        "int" => Ok(RegClass::Int),
        "float" => Ok(RegClass::Float),
        other => fail(ln, format!("unknown register class `{other}`")),
    }
}

fn imm(ln: usize, s: &str) -> Result<i64, ParseError> {
    let Ok(v) = s.parse() else {
        return fail(ln, format!("bad immediate `{s}`"));
    };
    Ok(v)
}

fn right<R: Operand>(ln: usize, s: &str) -> Result<Rhs<R>, ParseError> {
    match s.strip_prefix('#') {
        Some(i) => Ok(Rhs::Imm(imm(ln, i)?)),
        None => Ok(Rhs::Reg(R::parse(ln, s)?)),
    }
}

/// Parses a `[base+offset]` address (negative offsets spell `+-8`).
pub fn addr<R: Operand>(ln: usize, s: &str) -> Result<(R, i32), ParseError> {
    let Some(inner) = s.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return fail(ln, format!("expected `[base+offset]`, got `{s}`"));
    };
    let Some((base, offset)) = inner.split_once('+') else {
        return fail(ln, format!("expected `base+offset` in `{s}`"));
    };
    let Ok(offset) = offset.parse() else {
        return fail(ln, format!("bad offset `{offset}`"));
    };
    Ok((R::parse(ln, base.trim())?, offset))
}

/// Parses a spill slot, `frame[k]`: `None` when `s` names none.
pub fn frame_slot(ln: usize, s: &str) -> Result<Option<u32>, ParseError> {
    let Some(k) = s.strip_prefix("frame[") else {
        return Ok(None);
    };
    match k.strip_suffix(']').and_then(|k| k.parse().ok()) {
        Some(slot) => Ok(Some(slot)),
        None => fail(ln, format!("bad frame slot in `{s}`")),
    }
}

/// Parses a `fn NAME(PARAMS) [-> class] {` header, handing each
/// comma-separated parameter, untrimmed, to `param`. Returns the name and
/// the return class. The signature ends in exactly one `{`.
pub fn header<'a>(
    ln: usize,
    line: &'a str,
    mut param: impl FnMut(&'a str) -> Result<(), ParseError>,
) -> Result<(&'a str, Option<RegClass>), ParseError> {
    let Some(rest) = line.strip_prefix("fn ") else {
        return fail(ln, "expected `fn NAME(...)`");
    };
    let Some(open) = rest.find('(') else {
        return fail(ln, "expected `(` in function header");
    };
    let name = rest[..open].trim();
    if let Err(e) = validate_ident(name) {
        return fail(ln, format!("function name: {e}"));
    }
    let Some(close) = rest.find(')') else {
        return fail(ln, "expected `)` in function header");
    };
    let params = &rest[open + 1..close];
    if !params.trim().is_empty() {
        params.split(',').try_for_each(&mut param)?;
    }
    let tail = rest[close + 1..].trim();
    let ret = match tail.strip_suffix('{').map(str::trim_end) {
        Some("") => None,
        Some(r) if r.starts_with("->") => Some(class(ln, r[2..].trim())?),
        _ => return fail(ln, "expected `{` or `-> class {` after parameters"),
    };
    Ok((name, ret))
}

/// Parses a call, `NAME(a, b, ...)` after `call ` with nothing after the
/// `)`, interning the callee in `callees` in order of first appearance.
pub fn call<R: Operand>(
    ln: usize,
    s: &str,
    callees: &mut Vec<String>,
) -> Result<(CalleeId, Vec<R>), ParseError> {
    let Some(open) = s.find('(') else {
        return fail(ln, "expected `(` in call");
    };
    let Some(close) = s.rfind(')') else {
        return fail(ln, "expected `)` in call");
    };
    let name = s[..open].trim();
    if let Err(e) = validate_ident(name) {
        return fail(ln, format!("callee name: {e}"));
    }
    let mut args = Vec::new();
    let list = &s[open + 1..close];
    if !list.trim().is_empty() {
        for a in list.split(',') {
            args.push(R::parse(ln, a.trim())?);
        }
    }
    let tail = s[close + 1..].trim();
    if !tail.is_empty() {
        return fail(ln, format!("unexpected `{tail}` after call"));
    }
    let callee = match callees.iter().position(|c| c == name) {
        Some(i) => i,
        None => {
            callees.push(name.to_string());
            callees.len() - 1
        }
    };
    Ok((CalleeId::new(callee), args))
}

/// Parses a conditional branch, `OP lhs, rhs goto bX else bY` after
/// `if `, where `rhs` may be `#imm`, into `(OP, lhs, rhs, bX, bY)`.
pub fn branch<R: Operand>(
    ln: usize,
    s: &str,
) -> Result<(CmpOp, R, Rhs<R>, Block, Block), ParseError> {
    let Some((cond, targets)) = s.split_once(" goto ") else {
        return fail(ln, "expected `goto` in branch");
    };
    let Some((then_s, else_s)) = targets.split_once(" else ") else {
        return fail(ln, "expected `else` in branch");
    };
    let (op, operands) = cond.split_once(' ').unwrap_or((cond, ""));
    let Some(op) = CmpOp::ALL.into_iter().find(|c| c.mnemonic() == op) else {
        return fail(ln, format!("unknown comparison `{op}`"));
    };
    let Some((lhs, rhs)) = operands.split_once(',') else {
        return fail(ln, "expected two branch operands");
    };
    let lhs = R::parse(ln, lhs.trim())?;
    let then_dst = block(ln, then_s.trim())?;
    let else_dst = block(ln, else_s.trim())?;
    Ok((op, lhs, right(ln, rhs.trim())?, then_dst, else_dst))
}

/// Parses a binary operation, `OP lhs, rhs` where `rhs` may be `#imm`:
/// `None` when `s` does not start with an operator's mnemonic.
pub fn bin<R: Operand>(ln: usize, s: &str) -> Result<Option<(BinOp, R, Rhs<R>)>, ParseError> {
    let (head, operands) = s.split_once(' ').unwrap_or((s, ""));
    let Some(op) = BinOp::ALL.into_iter().find(|o| o.mnemonic() == head) else {
        return Ok(None);
    };
    let Some((lhs, rhs)) = operands.split_once(',') else {
        return fail(ln, format!("expected two operands for `{head}`"));
    };
    let lhs = R::parse(ln, lhs.trim())?;
    Ok(Some((op, lhs, right(ln, rhs.trim())?)))
}

/// Parses a constant, `1.5f` (also `inff`, `NaNf`, `-0f`, `1e300f`) or an
/// integer: `None` when `s` is neither. No register name ends in `f`, so
/// the suffix is unambiguous.
pub fn constant(ln: usize, s: &str) -> Result<Option<Const>, ParseError> {
    if let Some(f) = s.strip_suffix('f') {
        if let Ok(v) = f.parse() {
            return Ok(Some(Const::Float(v)));
        }
        // A float constant attempt: say so rather than fall through to
        // the caller's generic unrecognized-RHS error.
        if f.starts_with(|c: char| c.is_ascii_digit() || matches!(c, '-' | '+' | '.')) {
            return fail(ln, format!("bad float constant `{s}`"));
        }
    }
    Ok(s.parse().ok().map(Const::Int))
}
