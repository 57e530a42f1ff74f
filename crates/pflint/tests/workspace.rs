//! Workspace-level gate: the real source tree must be lint-clean, and the
//! PMU registry the lint trusts must itself round-trip coherently.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let findings = pflint::run(&workspace_root());
    assert!(
        findings.is_empty(),
        "pflint found {} problem(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn registry_round_trip_is_coherent() {
    use std::collections::BTreeSet;
    let events = pmu::registry::all_events();
    assert!(!events.is_empty());

    let mut names = BTreeSet::new();
    for e in &events {
        // Unique, non-empty perf-style name.
        assert!(!e.name.is_empty());
        assert!(
            names.insert(e.name.clone()),
            "duplicate registry name {}",
            e.name
        );
        // Non-empty family description and a derivable unit.
        assert!(!e.description.is_empty(), "no description for {}", e.name);
        assert_eq!(
            e.unit,
            pmu::registry::unit_of(&e.name),
            "unit drift for {}",
            e.name
        );
        // The name must resolve back to the same entry.
        let back = pmu::registry::lookup(&e.name).expect("lookup round-trip");
        assert_eq!(back.name, e.name);
        assert_eq!(back.pmu, e.pmu, "bank drift for {}", e.name);
    }
}

#[test]
fn every_configured_scan_path_exists() {
    // The scanners skip a missing directory silently, so a stale entry
    // would shrink coverage without a finding. Every configured root and
    // rule target must name a real file or directory.
    use pflint::*;
    let root = workspace_root();
    let mut paths: Vec<String> = determinism_config()
        .iter()
        .map(|c| c.rel_path.to_string())
        .collect();
    for roots in [
        PMU_SCAN_ROOTS,
        FAULT_PLAN_SCAN_ROOTS,
        CONCURRENCY_ALLOWLIST,
        PANIC_FREEDOM_ROOTS,
        &[INVARIANT_SCAN_ROOT, MODULE_SCAN_ROOT, OBS_SCAN_ROOT],
    ] {
        paths.extend(roots.iter().map(|p| p.to_string()));
    }
    paths.push(format!("{OBS_SCAN_ROOT}/{OBS_CLOCK_FILE}"));
    let missing: Vec<&String> = paths.iter().filter(|p| !root.join(p).exists()).collect();
    assert!(
        missing.is_empty(),
        "configured scan paths missing: {missing:?}"
    );
}
