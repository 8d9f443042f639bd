//! The traced replica computes what `pdgc serve` computes: for every
//! allocator, on the benchmark target and on the register-starved
//! `tight8`, each request's fingerprint and cache outcome match the
//! daemon's. A replica that drifts from the real pipeline fails here
//! instead of timing a different program.

#[allow(dead_code)]
#[path = "../src/bin/trace/replica.rs"]
mod replica;

use pdgc_obs::json::JsonObject;
use pdgc_perfbench::{build_pdgc, generate_all, scan_reply, suite_profiles, ServeChild};
use pdgc_target::TargetRegistry;
use replica::{Replica, Tracer};

const ALLOCATORS: [&str; 9] = [
    "full",
    "coalesce",
    "precoalesce",
    "chaitin",
    "briggs",
    "iterated",
    "optimistic",
    "callcost",
    "priority",
];

#[test]
fn replica_matches_pdgc_serve_for_all_allocators_on_two_targets() {
    let pdgc = build_pdgc().expect("pdgc builds");
    for target_name in ["ia64-24", "tight8"] {
        let target = TargetRegistry::builtin()
            .resolve(target_name)
            .cloned()
            .expect("built-in target");
        let profiles: Vec<_> = suite_profiles(11)
            .into_iter()
            .map(|mut p| {
                p.num_funcs = 2;
                p.for_target(&target)
            })
            .collect();
        let funcs = generate_all(&profiles);
        let mut child =
            ServeChild::spawn(&pdgc, 1, &format!("replica-{target_name}")).expect("serve starts");
        let mut replica = Replica::new(target_name, 1);
        let mut tracer = Tracer::default();
        let mut checked = 0;
        for f in &funcs {
            let ir = f.to_string();
            for a in ALLOCATORS {
                let line = JsonObject::new()
                    .str("fn", &ir)
                    .str("target", target_name)
                    .str("allocator", a)
                    .finish();
                let mine = replica
                    .handle(&mut tracer, &line)
                    .unwrap_or_else(|e| panic!("replica failed on {} ({a}): {e}", f.name));
                let resp = child.request(&line).expect("serve answers");
                let theirs = scan_reply(resp);
                assert!(theirs.ok, "{} ({a}) on {target_name}: {resp:.200}", f.name);
                assert_eq!(
                    theirs.fingerprint,
                    format!("{:016x}", mine.fingerprint),
                    "{} ({a}) on {target_name}",
                    f.name
                );
                assert_eq!((theirs.cached, theirs.checked), (mine.cached, mine.checked));
                checked += 1;
            }
        }
        child.finish().expect("serve exits cleanly");
        assert_eq!(checked, funcs.len() * ALLOCATORS.len());
    }
}
