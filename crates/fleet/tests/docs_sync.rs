//! Doc-sync gates: the normative specs under `docs/` must match the
//! code they describe, and no Markdown link in the repo's documentation
//! may dangle.
//!
//! Four families of checks, all air-gapped (plain string scanning — no
//! Markdown parser dependency):
//!
//! * **Version pinning** — every on-disk format's version string quoted
//!   in `docs/FORMATS.md` must equal the constant in the owning module,
//!   so bumping a schema in code without updating the spec (or vice
//!   versa) fails CI; the scenario grammar's directive list and defaults
//!   must be what `write_scenario` prints.
//! * **Dead links** — every `[text](target)` link in `README.md`,
//!   `PAPER.md` and `docs/*.md` must resolve: relative paths to files
//!   that exist, `#anchors` to headings that exist in the target
//!   document (GitHub slug rules). External URLs are skipped (the
//!   checker must run offline).
//! * **Binary names** — every `exp_…` name the documentation, crate
//!   docs, examples, workflows or the verify skill mention must be a
//!   binary that exists in `crates/bench/src/bin/`.
//! * **Lint opt-in** — every member manifest inherits `[workspace.lints]`
//!   (which forbids `unsafe` and reason-less lint exceptions), and the
//!   retired line scanner is named nowhere.

use std::fs;
use std::path::{Path, PathBuf};

use dynareg_fleet::PHASE_SCHEMA;
use dynareg_net::{DelayFault, DropRule, FaultPlan, Partition, RegionMatrix};
use dynareg_sim::obs::TIMESERIES_SCHEMA;
use dynareg_sim::{Span, Time};
use dynareg_testkit::{write_scenario, ScenarioSpec, FLIGHT_SCHEMA, FORMAT_LINE};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The files under `dir` (relative to the repository root, walked
/// recursively) with extension `ext`.
fn files_in(dir: &str, ext: &str) -> Vec<PathBuf> {
    fn walk(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
        let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for path in entries.map(|entry| entry.expect("directory entry").path()) {
            if path.is_dir() {
                walk(&path, ext, out);
            } else if path.extension().is_some_and(|e| e == ext) {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&repo_root().join(dir), ext, &mut out);
    out
}

/// The documentation set the link checker walks: the README, PAPER.md
/// (whose mapping table links ledger rows) and every Markdown file under
/// `docs/`.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md"), root.join("PAPER.md")];
    files.extend(files_in("docs", "md"));
    assert!(
        files.len() >= 5,
        "README, PAPER + at least PROTOCOL.md, FORMATS.md, REPRODUCTION.md"
    );
    files
}

/// `docs/FORMATS.md` quotes every format's version string; each must be
/// the constant the owning module actually writes, and the version
/// tables must not mention a stale predecessor (e.g. a `/4` surviving a
/// `/5` bump) outside the explicitly-labelled version history.
#[test]
fn formats_spec_pins_the_code_version_strings() {
    let spec = read(&repo_root().join("docs/FORMATS.md"));
    for (name, tag) in [
        ("scenario", FORMAT_LINE),
        ("flight", FLIGHT_SCHEMA),
        ("timeseries", TIMESERIES_SCHEMA),
        ("phase-diagram", PHASE_SCHEMA),
    ] {
        assert!(
            spec.contains(tag),
            "docs/FORMATS.md must quote the {name} version string `{tag}` \
             (the code constant changed without a spec update, or vice versa)"
        );
        // The spec's summary table must carry the tag verbatim in a code
        // span, so a reader greps one canonical spelling.
        assert!(
            spec.contains(&format!("`{tag}`")),
            "docs/FORMATS.md must show `{tag}` as a code span"
        );
    }
}

/// `docs/FORMATS.md`'s scenario directive block names exactly the
/// directives `write_scenario` prints for a spec that sets every optional
/// one, and every default it states is the one `ScenarioSpec::new` prints.
#[test]
fn formats_spec_lists_exactly_the_printed_scenario_directives() {
    let doc = read(&repo_root().join("docs/FORMATS.md"));
    let block = doc
        .split("Directives (defaults in parentheses")
        .nth(1)
        .and_then(|rest| rest.split("```text\n").nth(1))
        .and_then(|rest| rest.split("```").next())
        .expect("docs/FORMATS.md has the directive block");
    // A directive is a line's first word; `fault` lines also their second.
    let name = |line: &str| {
        let words: Vec<&str> = line.split_whitespace().take(2).collect();
        if words[0] == "fault" {
            words.join(" ")
        } else {
            words[0].to_string()
        }
    };
    let documented: Vec<&str> = block
        .lines()
        .filter(|l| !l.trim_start().starts_with('|'))
        .collect();
    let faults = FaultPlan::none()
        .with(DelayFault::slow_everything(
            Time::ZERO,
            Time::MAX,
            Span::UNIT,
        ))
        .with_partition(Partition::even_odd(Time::ZERO, Time::MAX))
        .with_drop(DropRule::lossy_everything(Time::ZERO, Time::MAX, 0.5))
        .with_region(RegionMatrix::new(2).with_link(0, 1, Span::UNIT));
    let every = ScenarioSpec {
        drain: Some(Span::UNIT),
        write_every: Some(Span::UNIT),
        write_quiesce: Some(Span::UNIT),
        trace: true,
        faults: Some(faults),
        ..ScenarioSpec::synchronous(1, Span::UNIT)
    };
    let printed = write_scenario(&every).expect("no script");
    let mut in_doc: Vec<String> = documented.iter().map(|l| name(l)).collect();
    let mut in_code: Vec<String> = printed.lines().skip(1).map(name).collect();
    for names in [&mut in_doc, &mut in_code] {
        names.sort();
        names.dedup();
    }
    assert_eq!(in_doc, in_code, "docs/FORMATS.md vs write_scenario");

    let defaults = write_scenario(&ScenarioSpec::synchronous(1, Span::UNIT)).expect("no script");
    for line in documented {
        let Some((_, default)) = line.split_once("# (") else {
            continue;
        };
        let (directive, default) = (name(line), default.trim_end().trim_end_matches(')'));
        if let Some(printed) = defaults.lines().find(|l| name(l) == directive) {
            assert_eq!(
                printed,
                format!("{directive} {default}"),
                "default of `{directive}`"
            );
        }
    }
}

/// `docs/PROTOCOL.md` names the protocol structures it specifies; if
/// one of these is renamed in code the spec must follow.
#[test]
fn protocol_spec_names_the_wire_structures() {
    let spec = read(&repo_root().join("docs/PROTOCOL.md"));
    for needle in [
        "JoinAll",
        "Batch",
        "Keyed",
        "INQUIRY",
        "RetransmitConfig",
        "join.retransmits",
        "shard_of_node",
    ] {
        assert!(
            spec.contains(needle),
            "docs/PROTOCOL.md no longer mentions `{needle}` — wire spec drift?"
        );
    }
}

/// GitHub's heading-to-anchor slug: lowercase, alphanumerics kept,
/// spaces and hyphens become hyphens, everything else dropped.
fn slug(heading: &str) -> String {
    let mut out = String::new();
    for ch in heading.trim().chars() {
        match ch {
            c if c.is_alphanumeric() => out.extend(c.to_lowercase()),
            ' ' | '-' => out.push('-'),
            _ => {}
        }
    }
    out
}

/// All heading anchors of a Markdown document (ATX headings only, which
/// is all this repo uses). Code fences are skipped so a `# comment` in
/// an example block is not a heading.
fn anchors(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let trimmed = line.trim_start();
        let level = trimmed.chars().take_while(|&c| c == '#').count();
        if (1..=6).contains(&level) && trimmed[level..].starts_with(' ') {
            out.push(slug(&trimmed[level..]));
        }
    }
    out
}

/// Extracts `(target, line_number)` of every inline Markdown link,
/// skipping code fences and inline code spans.
fn links(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (ln, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_code = false;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code = !in_code,
                b']' if !in_code && i + 1 < bytes.len() && bytes[i + 1] == b'(' => {
                    if let Some(close) = line[i + 2..].find(')') {
                        out.push((line[i + 2..i + 2 + close].to_string(), ln + 1));
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// Every relative link in the documentation set resolves to a file in
/// the repository, and every `#anchor` resolves to a heading of its
/// target document.
#[test]
fn documentation_has_no_dead_links() {
    let root = repo_root().canonicalize().expect("repo root resolves");
    let mut broken: Vec<String> = Vec::new();
    for file in doc_files() {
        let text = read(&file);
        let own_anchors = anchors(&text);
        let dir = file.parent().expect("doc file has a parent");
        for (target, line) in links(&text) {
            let at = || format!("{}:{line} -> {target}", file.display());
            if target.starts_with("http://") || target.starts_with("https://") {
                continue; // air-gapped checker: external URLs are out of scope
            }
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a)),
                None => (target.as_str(), None),
            };
            let (resolved_text, exists) = if path_part.is_empty() {
                (Some(text.clone()), true)
            } else {
                let resolved = dir.join(path_part);
                match resolved.canonicalize() {
                    Ok(p) => {
                        assert!(
                            p.starts_with(&root),
                            "{}: link escapes the repository",
                            at()
                        );
                        let t = p
                            .extension()
                            .map(|e| e == "md")
                            .unwrap_or(false)
                            .then(|| read(&p));
                        (t, true)
                    }
                    Err(_) => (None, false),
                }
            };
            if !exists {
                broken.push(format!("{} (missing file)", at()));
                continue;
            }
            if let Some(anchor) = anchor {
                let found = match &resolved_text {
                    Some(_) if path_part.is_empty() => own_anchors.contains(&anchor.to_string()),
                    Some(t) => anchors(t).contains(&anchor.to_string()),
                    None => false, // anchor into a non-Markdown file
                };
                if !found {
                    broken.push(format!("{} (missing anchor)", at()));
                }
            }
        }
    }
    assert!(broken.is_empty(), "dead documentation links:\n{broken:#?}");
}

/// Every `exp_…` binary a reader is told to run exists: the token after
/// `exp_` must name a file in `crates/bench/src/bin/`, so deleting or
/// renaming a binary cannot leave a reference behind.
#[test]
fn documentation_names_only_existing_binaries() {
    let root = repo_root();
    let mut sources = doc_files();
    sources.push(root.join("src/lib.rs"));
    sources.push(root.join(".claude/skills/verify/SKILL.md"));
    sources.extend(files_in("examples", "rs"));
    sources.extend(files_in(".github/workflows", "yml"));
    let binaries: Vec<String> = files_in("crates/bench/src/bin", "rs")
        .iter()
        .map(|p| {
            p.file_stem()
                .expect("a file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut unknown: Vec<String> = Vec::new();
    for file in sources {
        let text = read(&file);
        for (at, _) in text.match_indices("exp_") {
            let name_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
            let inside_word = text[..at].chars().next_back().is_some_and(name_char);
            let name: String = text[at..].chars().take_while(|&c| name_char(c)).collect();
            if !inside_word && name != "exp_" && !binaries.contains(&name) {
                unknown.push(format!("{}: `{name}`", file.display()));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "references to experiment binaries that do not exist:\n{unknown:#?}"
    );
}

/// The README links into `docs/` — the tree is discoverable from the
/// front page, not an orphan.
#[test]
fn readme_links_to_the_docs_tree() {
    let readme = read(&repo_root().join("README.md"));
    for doc in [
        "docs/PROTOCOL.md",
        "docs/FORMATS.md",
        "docs/REPRODUCTION.md",
    ] {
        assert!(
            readme.contains(doc),
            "README.md must link to {doc} so the specs are discoverable"
        );
    }
}

/// `[workspace.lints]` in the root manifest binds only the members that
/// opt in, so a manifest without `[lints] workspace = true` would compile
/// `unsafe` and accept a reason-less `#[allow]` unnoticed. And the
/// hand-written scanner those lints replaced stays gone: nothing a reader
/// or CI follows may still point at it.
#[test]
fn every_member_inherits_the_workspace_lints_and_the_scanner_is_gone() {
    let root = repo_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(files_in("crates", "toml"));
    assert!(manifests.len() >= 11, "root + 8 crates + 2 shims");
    for manifest in &manifests {
        assert!(
            read(manifest).contains("[lints]\nworkspace = true"),
            "{} must opt into [workspace.lints]",
            manifest.display()
        );
    }
    let root_manifest = read(&manifests[0]);
    assert_eq!(root_manifest.matches("unsafe_code = \"forbid\"").count(), 1);

    let retired = ["det", "lint"].concat(); // spelled apart so this file passes
    let mut sources = doc_files();
    sources.push(root.join("clippy.toml"));
    sources.push(root.join(".claude/skills/verify/SKILL.md"));
    sources.extend(files_in(".github/workflows", "yml"));
    sources.extend(manifests);
    for dir in ["crates", "src", "tests", "examples"] {
        sources.extend(files_in(dir, "rs"));
    }
    let naming: Vec<&PathBuf> = sources
        .iter()
        .filter(|file| read(file).contains(&retired))
        .collect();
    assert!(naming.is_empty(), "still naming `{retired}`: {naming:#?}");
}
