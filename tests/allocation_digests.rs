//! Byte-identity pin for every allocator on several targets.
//!
//! For each allocator in [`pdgc::all_allocators`] and each target below,
//! the seed-0 suite (adapted to the target) is allocated and every
//! output's machine text and [`AllocStats`] — or the error text — is
//! folded into one FNV-1a digest. The digests must equal
//! `tests/golden/allocation_digests.txt`. A change that claims "same
//! allocations" keeps this file as it is; a change that means to alter
//! allocations rewrites it from the table printed on a mismatch.

use pdgc::prelude::*;
use pdgc::workloads::specjvm_suite;

const TARGETS: [&str; 4] = ["ia64-24", "ia64-16", "x86-16", "tight8"];
const GOLDEN: &str = include_str!("golden/allocation_digests.txt");

/// 64-bit FNV-1a, written out so the digests do not depend on std's
/// hasher.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest_table() -> String {
    let registry = TargetRegistry::builtin();
    let allocators = pdgc::all_allocators();
    let mut session = AllocSession::default();
    let mut table = String::new();
    for name in TARGETS {
        let target = registry.get(name).expect("builtin target");
        let funcs: Vec<Function> = specjvm_suite()
            .iter()
            .flat_map(|p| generate(&p.for_target(target)).funcs)
            .collect();
        for alloc in &allocators {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for func in &funcs {
                h.write(func.name.as_bytes());
                match alloc.allocate(func, target, &mut session) {
                    Ok(out) => {
                        h.write(out.mach.to_string().as_bytes());
                        h.write(format!("{:?}", out.stats).as_bytes());
                    }
                    Err(e) => h.write(format!("error: {e}").as_bytes()),
                }
            }
            table.push_str(&format!("{name} {} {:016x}\n", alloc.name(), h.0));
        }
    }
    table
}

#[test]
fn allocations_match_the_golden_digests() {
    let current = digest_table();
    assert!(
        current == GOLDEN,
        "allocation digests changed; the current table is:\n{current}"
    );
}
