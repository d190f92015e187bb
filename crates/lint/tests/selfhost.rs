//! The tier-1 gate: `anonet-lint` runs clean over this very repository.
//!
//! A diagnostic here means either new code broke a workspace invariant
//! (fix the code) or a deliberate exception lacks its inline waiver
//! (write `// lint: allow(check-id) — reason` next to it). CI runs the
//! same checks via the binary; this test makes `cargo test` alone enforce
//! the gate.

use anonet_lint::{check_workspace, Config};
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = check_workspace(&root, &Config::workspace()).expect("walk the workspace");
    assert!(
        diags.is_empty(),
        "anonet-lint found {} violation(s):\n{}",
        diags.len(),
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// The quoted entries of the root manifest's `key = [ ... ]` array.
fn manifest_list<'a>(manifest: &'a str, key: &str) -> BTreeSet<&'a str> {
    let start = manifest
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("root Cargo.toml has no `{key}` list"));
    manifest
        .lines()
        .skip(start + 1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
        .collect()
}

/// `default-members` is what the plain `cargo test` at the root runs, so a
/// crate listed in `members` but not there would silently drop out of it.
#[test]
fn default_members_cover_the_whole_workspace() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../Cargo.toml");
    let manifest = std::fs::read_to_string(path).expect("read the root Cargo.toml");
    let mut expected = manifest_list(&manifest, "members");
    expected.insert(".");
    assert_eq!(manifest_list(&manifest, "default-members"), expected);
}
