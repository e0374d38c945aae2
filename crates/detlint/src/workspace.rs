//! Workspace discovery and the file walk.
//!
//! Members come from the root `Cargo.toml`'s `members` list (a hand-rolled
//! parse — the manifest format needed here is a quoted-string array), so a
//! future crate is audited the moment it joins the workspace. Two kinds of
//! path are excluded:
//!
//! * `crates/shims/**` — vendored stand-ins for external crates
//!   (`rand`, `proptest`). They sit *below* the determinism boundary:
//!   `DetRng` wraps the rand shim.
//! * any `fixtures/` directory — detlint's own rule corpus is deliberate
//!   violations.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::{lint_source, FileContext, Finding};

/// One workspace member to audit.
#[derive(Debug, Clone)]
pub struct Member {
    /// Workspace-relative directory (`.` for the facade crate).
    pub dir: String,
}

/// Reads the `members = [ … ]` array out of the root manifest and prepends
/// the facade package (`.`).
pub fn discover_members(root: &Path) -> Result<Vec<Member>, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("reading {}: {e}", root.join("Cargo.toml").display()))?;
    let mut members = vec![Member {
        dir: ".".to_string(),
    }];
    let Some(tail) = manifest.split_once("members = [").map(|(_, t)| t) else {
        return Err("no `members = [` array in the root Cargo.toml".to_string());
    };
    let Some(body) = tail.split_once(']').map(|(b, _)| b) else {
        return Err("unterminated members array in the root Cargo.toml".to_string());
    };
    for piece in body.split(',') {
        let piece = piece.trim();
        if let Some(dir) = piece.strip_prefix('"').and_then(|p| p.strip_suffix('"')) {
            if !dir.starts_with("crates/shims") {
                members.push(Member {
                    dir: dir.to_string(),
                });
            }
        }
    }
    Ok(members)
}

/// Lints every Rust source of every (non-excluded) member under `root`.
/// Findings come back sorted by `(file, line, rule)`.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for member in discover_members(root)? {
        let dir = if member.dir == "." {
            root.to_path_buf()
        } else {
            root.join(&member.dir)
        };
        let crate_root = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|f| dir.join(f))
            .find(|p| p.is_file());
        let mut files = Vec::new();
        for sub in ["src", "tests", "benches", "examples"] {
            collect_rs_files(&dir.join(sub), &mut files);
        }
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            if rel.split('/').any(|seg| seg == "fixtures") {
                continue;
            }
            let src = fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            let ctx = FileContext {
                rel_path: rel,
                is_crate_root: crate_root.as_deref() == Some(&file),
            };
            findings.extend(lint_source(&src, &ctx));
        }
    }
    findings.sort();
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return; // members without tests/benches/examples
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Walks up from `start` to the manifest that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Partitions findings for the gate: `(allowed, unallowed)`. Meta
/// diagnostics ([`crate::rules::Rule::BadAllow`],
/// [`crate::rules::Rule::UnusedAllow`]) are always
/// unallowed.
pub fn partition(findings: &[Finding]) -> (Vec<&Finding>, Vec<&Finding>) {
    findings.iter().partition(|f| f.allowed.is_some())
}

/// Convenience for tests: the unallowed subset.
pub fn unallowed(findings: &[Finding]) -> Vec<&Finding> {
    partition(findings).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_parse_skips_shims_and_adds_facade() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let members = discover_members(&root).expect("workspace manifest parses");
        let dirs: Vec<&str> = members.iter().map(|m| m.dir.as_str()).collect();
        assert!(dirs.contains(&"."), "facade is audited");
        assert!(dirs.contains(&"crates/net"), "members are audited");
        assert!(dirs.contains(&"crates/detlint"), "detlint audits itself");
        assert!(
            dirs.iter().all(|d| !d.starts_with("crates/shims")),
            "shims sit below the determinism boundary: {dirs:?}"
        );
    }
}
