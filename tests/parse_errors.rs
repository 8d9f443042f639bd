//! Pins the error surface of both text parsers: one malformed line per
//! grammar leaf, each with its exact message and line number. The IR and
//! machine-code tables mirror each other row for row wherever the two
//! forms share a leaf.

use pdgc::ir::parse_function;
use pdgc::target::parse_mach_function;

/// `line` as the only instruction of a one-block IR function (line 3).
fn ir(line: &str) -> String {
    format!("fn f(v0: int) {{\nb0:\n    {line}\n    ret\n}}")
}

/// `line` as the only instruction of a one-block machine function (line 3).
fn mach(line: &str) -> String {
    format!("fn f(int) {{\nb0:\n    {line}\n    ret\n}}")
}

fn ir_error(text: &str) -> (usize, String) {
    let e = parse_function(text).expect_err(text);
    (e.line, e.message)
}

fn mach_error(text: &str) -> (usize, String) {
    let e = parse_mach_function(text).expect_err(text);
    (e.line, e.message)
}

const CALLEE_9G: &str =
    "callee name: invalid identifier `9g`: must start with an ASCII letter or `_`";
const FN_9F: &str =
    "function name: invalid identifier `9f`: must start with an ASCII letter or `_`";
const AFTER_PARAMS: &str = "expected `{` or `-> class {` after parameters";

/// IR instruction lines and the message each must produce at line 3.
const IR_LINES: &[(&str, &str)] = &[
    // Block labels.
    ("jump c1", "expected a block label, got `c1`"),
    ("jump bx", "bad block `bx`"),
    // Classes.
    ("v1: double = 5", "unknown register class `double`"),
    // Immediates.
    ("v1 = add v0, #x", "bad immediate `x`"),
    ("v1 = add v0, ##5", "bad immediate `#5`"),
    ("if eq v0, #zz goto b0 else b0", "bad immediate `zz`"),
    // Addresses: offset, `[`, `]`, `+`, in every form that takes one.
    ("v1 = [v0+zz]", "bad offset `zz`"),
    ("[v0+zz] = v0", "bad offset `zz`"),
    ("v1 = byte v0+0]", "expected `[base+offset]`, got `v0+0]`"),
    ("v1 = [v0+0", "expected `[base+offset]`, got `[v0+0`"),
    ("v1 = [v0]", "expected `base+offset` in `[v0]`"),
    ("v1 = f64[v0]", "expected `base+offset` in `[v0]`"),
    ("v1 = f64[v0+0", "expected `[base+offset]`, got `[v0+0`"),
    ("[v0+0] v1", "expected `=` in store"),
    // Branches.
    ("if xx v0, #0 goto b0 else b0", "unknown comparison `xx`"),
    ("if eq v0, #0 b0 else b0", "expected `goto` in branch"),
    ("if eq v0, #0 goto b0 b0", "expected `else` in branch"),
    ("if eq v0 goto b0 else b0", "expected two branch operands"),
    // Frame slots.
    ("v1 = frame[x]", "bad frame slot in `frame[x]`"),
    ("frame[x] = v0", "bad frame slot in `frame[x]`"),
    // Calls.
    ("call g", "expected `(` in call"),
    ("call g(v0", "expected `)` in call"),
    ("call 9g(v0)", CALLEE_9G),
    // Binary operators.
    ("v1 = add v0", "expected two operands for `add`"),
    // Registers.
    ("ret v", "bad register `v`"),
    ("ret vx", "bad register `vx`"),
    (
        "v1 = add v0, r300",
        "expected a virtual register, got `r300`",
    ),
    // Constants and the catch-alls.
    ("v1 = 1..5f", "bad float constant `1..5f`"),
    ("v1 = bogus v0", "unrecognized right-hand side `bogus v0`"),
    ("bogus", "unrecognized instruction `bogus`"),
    // φ.
    ("v1 = phi [b0 v0]", "phi arg `b0 v0` must be `[bN: vM]`"),
    ("v1 = phi", "phi has no arguments"),
];

/// Machine-code instruction lines and their messages at line 3.
const MACH_LINES: &[(&str, &str)] = &[
    ("goto c1", "expected a block label, got `c1`"),
    ("goto bx", "bad block `bx`"),
    ("r1 = add r0, #x", "bad immediate `x`"),
    ("r1 = add r0, ##5", "bad immediate `#5`"),
    ("if eq r0, #zz goto b0 else b0", "bad immediate `zz`"),
    ("r1 = [r0+zz]", "bad offset `zz`"),
    ("[r0+zz] = r1", "bad offset `zz`"),
    ("r1 = byte r0+0]", "expected `[base+offset]`, got `r0+0]`"),
    ("r1 = [r0+0", "expected `[base+offset]`, got `[r0+0`"),
    ("r1 = [r0]", "expected `base+offset` in `[r0]`"),
    ("[r0+0] r1", "expected `=` in store"),
    // Paired loads: both addresses, the separator and the bases.
    (
        "r1, r2 = pair r0+0], [r0+8]",
        "expected `[base+offset]`, got `r0+0]`",
    ),
    (
        "r1, r2 = pair [r0+0], [r0]",
        "expected `base+offset` in `[r0]`",
    ),
    (
        "r1, r2 = pair [r0+0] [r0+8]",
        "expected two addresses in `pair`",
    ),
    ("r1, r2 = [r0+0]", "two destinations require a `pair` load"),
    (
        "r1, r2 = pair [r0+0], [r3+8]",
        "paired load reads from two different bases",
    ),
    ("if xx r0, #0 goto b0 else b0", "unknown comparison `xx`"),
    ("if eq r0, #0 b0 else b0", "expected `goto` in branch"),
    ("if eq r0, #0 goto b0 b0", "expected `else` in branch"),
    ("if eq r0 goto b0 else b0", "expected two branch operands"),
    ("r1 = frame[x]", "bad frame slot in `frame[x]`"),
    ("frame[x] = r0", "bad frame slot in `frame[x]`"),
    ("call g", "expected `(` in call"),
    ("call g(r0", "expected `)` in call"),
    ("call 9g()", CALLEE_9G),
    ("r1 = add r0", "expected two operands for `add`"),
    ("r1 = add r300, r0", "bad register `r300`"),
    ("r1 = add rx, r0", "bad register `rx`"),
    (
        "r1 = add v0, r0",
        "expected a register (`rN` or `fN`), got `v0`",
    ),
    ("f1 = 1..5f", "bad float constant `1..5f`"),
    ("r1 = bogus r0", "unrecognized right-hand side `bogus r0`"),
    ("bogus", "unrecognized instruction `bogus`"),
];

/// IR headers (line 1) and their messages.
const IR_HEADERS: &[(&str, &str)] = &[
    ("function f() {", "expected `fn NAME(...)`"),
    ("fn f {", "expected `(` in function header"),
    ("fn 9f() {", FN_9F),
    ("fn f( {", "expected `)` in function header"),
    ("fn f(v0 int) {", "parameter `v0 int` must be `vN: class`"),
    ("fn f(v0: double) {", "unknown register class `double`"),
    ("fn f(vx: int) {", "bad register `vx`"),
    ("fn f() -> quad {", "unknown register class `quad`"),
    ("fn f() =>", AFTER_PARAMS),
];

/// Machine-code headers (line 1) and their messages.
const MACH_HEADERS: &[(&str, &str)] = &[
    ("function f() {", "expected `fn NAME(...)`"),
    ("fn f {", "expected `(` in function header"),
    ("fn 9f() {", FN_9F),
    ("fn f( {", "expected `)` in function header"),
    ("fn f(double) {", "unknown register class `double`"),
    ("fn f() -> quad {", "unknown register class `quad`"),
    ("fn f() =>", AFTER_PARAMS),
];

#[test]
fn ir_leaf_errors_keep_their_messages_and_lines() {
    for &(line, message) in IR_LINES {
        assert_eq!(
            ir_error(&ir(line)),
            (3, message.to_string()),
            "for `{line}`"
        );
    }
    for &(header, message) in IR_HEADERS {
        let text = format!("{header}\nb0:\n    ret\n}}");
        assert_eq!(ir_error(&text), (1, message.to_string()), "for `{header}`");
    }
}

#[test]
fn mach_leaf_errors_keep_their_messages_and_lines() {
    for &(line, message) in MACH_LINES {
        assert_eq!(
            mach_error(&mach(line)),
            (3, message.to_string()),
            "for `{line}`"
        );
    }
    for &(header, message) in MACH_HEADERS {
        let text = format!("{header}\nb0:\n    ret\n}}");
        assert_eq!(
            mach_error(&text),
            (1, message.to_string()),
            "for `{header}`"
        );
    }
    // The `; frame:` and `; saves:` structure lines (line 2).
    for (structure, message) in [
        (
            "; frame: x slots",
            "expected `; frame: N slots`, got `; frame: x slots`",
        ),
        (
            "; saves: x1",
            "expected a register (`rN` or `fN`), got `x1`",
        ),
    ] {
        let text = format!("fn f() {{\n    {structure}\nb0:\n    ret\n}}");
        assert_eq!(
            mach_error(&text),
            (2, message.to_string()),
            "for `{structure}`"
        );
    }
}

/// Neither printer writes text after a call's `)`, a header without
/// exactly one `{`, or an index past `u32`, so neither parser may accept
/// any of them.
#[test]
fn ir_rejects_text_the_printer_never_prints() {
    for (line, message) in [
        ("call g(v0) garbage", "unexpected `garbage` after call"),
        ("v1 = call g(v0) junk", "unexpected `junk` after call"),
        // Past `u32`: a typed error, not a panic in `Block::new`/`VReg::new`.
        ("jump b5000000000", "bad block `b5000000000`"),
        ("ret v5000000000", "bad register `v5000000000`"),
    ] {
        assert_eq!(
            ir_error(&ir(line)),
            (3, message.to_string()),
            "for `{line}`"
        );
    }
    for (header, message) in [
        ("fn f() -> int", AFTER_PARAMS),
        ("fn f()", AFTER_PARAMS),
        ("fn f() {{", AFTER_PARAMS),
        ("fn f() -> int {{{", "unknown register class `int {{`"),
    ] {
        let text = format!("{header}\nb0:\n    ret\n}}");
        assert_eq!(ir_error(&text), (1, message.to_string()), "for `{header}`");
    }
}

#[test]
fn mach_rejects_text_the_printer_never_prints() {
    for (line, message) in [
        ("call g(r0) garbage", "unexpected `garbage` after call"),
        ("r1 = call g(r0) junk", "unexpected `junk` after call"),
        ("goto b5000000000", "bad block `b5000000000`"),
    ] {
        assert_eq!(
            mach_error(&mach(line)),
            (3, message.to_string()),
            "for `{line}`"
        );
    }
    for (header, message) in [
        ("fn f() -> int", AFTER_PARAMS),
        ("fn f()", AFTER_PARAMS),
        ("fn f() {{", AFTER_PARAMS),
        ("fn f() -> int {{{", "unknown register class `int {{`"),
    ] {
        let text = format!("{header}\nb0:\n    ret\n}}");
        assert_eq!(
            mach_error(&text),
            (1, message.to_string()),
            "for `{header}`"
        );
    }
}
