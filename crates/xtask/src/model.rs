//! The workspace model: crates, manifests, files, items and imports.
//!
//! Built once per lint run from the same lexer the per-file lints use,
//! the model gives the workspace-level passes ([`crate::layers`],
//! [`crate::concurrency`]) a semantic view of the repository:
//!
//! * every workspace crate with its manifest dependencies (normal and
//!   dev) and their source lines;
//! * every tracked source file, attributed to its crate, with top-level
//!   item extraction (`fn`/`struct`/`enum`/`trait`/`impl`/`mod`/…),
//!   `use`-tree and qualified-path imports of workspace crates, and
//!   `mod name;` declarations resolved to candidate files.
//!
//! The manifest parser speaks the TOML subset the workspace actually
//! uses: `[section]` headers and `key = value` / `key.workspace = true`
//! entries. That is deliberate — `xtask` stays dependency-free.

use crate::lexer::Token;
use crate::lints::SourceFile;
use crate::walk;
use std::io;
use std::path::{Path, PathBuf};

/// One dependency edge from a crate's manifest.
#[derive(Debug, Clone)]
pub struct Dep {
    /// The dependency's crate name (after `package = …` renames).
    pub name: String,
    /// 1-based line in the manifest.
    pub line: u32,
    /// From `[dev-dependencies]`.
    pub dev: bool,
}

/// One workspace crate.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `[package]`.
    pub name: String,
    /// Repo-relative manifest path (`crates/x/Cargo.toml`, `Cargo.toml`).
    pub manifest: String,
    /// Repo-relative source prefix (`crates/x/`, `""` for the root).
    pub prefix: String,
    /// All manifest dependencies (workspace-internal and external).
    pub deps: Vec<Dep>,
}

/// One extracted top-level item.
#[derive(Debug, Clone)]
pub struct Item {
    /// `fn`, `struct`, `enum`, `trait`, `impl`, `mod`, `type`, `const`,
    /// `static` or `use`.
    pub kind: String,
    /// Item name (for `impl`: the self type; empty when unnameable).
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: u32,
}

/// One tracked source file.
pub struct FileModel {
    /// Repo-relative path.
    pub rel: PathBuf,
    /// Owning crate's package name.
    pub crate_name: String,
    /// Lexed source, shared with the per-file lints.
    pub src: SourceFile,
    /// Top-level items.
    pub items: Vec<Item>,
    /// Workspace-crate imports as (crate name, line): `use slam_math::…`
    /// trees and inline `slam_math::…` qualified paths.
    pub imports: Vec<(String, u32)>,
    /// `mod name;` declarations (any nesting depth) as (name, line).
    pub mod_decls: Vec<(String, u32)>,
}

/// The whole-workspace model.
pub struct Model {
    pub crates: Vec<CrateInfo>,
    pub files: Vec<FileModel>,
}

impl Model {
    /// Builds the model for the repository at `root`. The file walk is
    /// the same one the per-file lints use ([`walk::collect_sources`]).
    pub fn build(root: &Path) -> io::Result<Model> {
        let mut crates = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .map(|e| e.map(|e| e.path()))
                .collect::<io::Result<_>>()?;
            dirs.sort();
            for dir in dirs {
                // xtask is a standalone workspace linted by its own tests
                if dir.file_name().is_some_and(|n| n == "xtask") {
                    continue;
                }
                let manifest = dir.join("Cargo.toml");
                if !manifest.is_file() {
                    continue;
                }
                let text = std::fs::read_to_string(&manifest)?;
                let rel_dir = format!(
                    "crates/{}/",
                    dir.file_name().unwrap_or_default().to_string_lossy()
                );
                crates.push(parse_manifest(
                    &text,
                    &format!("{rel_dir}Cargo.toml"),
                    &rel_dir,
                ));
            }
        }
        let root_manifest = root.join("Cargo.toml");
        if root_manifest.is_file() {
            let text = std::fs::read_to_string(&root_manifest)?;
            let info = parse_manifest(&text, "Cargo.toml", "");
            if !info.name.is_empty() {
                crates.push(info);
            }
        }
        let crate_names: Vec<String> = crates.iter().map(|c| c.name.clone()).collect();
        let mut files = Vec::new();
        for rel in walk::collect_sources(root)? {
            let text = std::fs::read_to_string(root.join(&rel))?;
            let src = SourceFile::new(&rel, &text);
            let rel_str = src.path.clone();
            let crate_name = crates
                .iter()
                .filter(|c| !c.prefix.is_empty() && rel_str.starts_with(&c.prefix))
                .map(|c| c.name.clone())
                .next()
                .or_else(|| {
                    crates
                        .iter()
                        .find(|c| c.prefix.is_empty())
                        .map(|c| c.name.clone())
                })
                .unwrap_or_default();
            let items = extract_items(&src.tokens);
            let imports = extract_imports(&src.tokens, &crate_names);
            let mod_decls = items
                .iter()
                .filter(|i| i.kind == "mod")
                .map(|i| (i.name.clone(), i.line))
                .collect();
            files.push(FileModel {
                rel,
                crate_name,
                src,
                items,
                imports,
                mod_decls,
            });
        }
        Ok(Model { crates, files })
    }
}

/// `slam-math` ↔ `slam_math`: manifest names use dashes, paths in code
/// use underscores.
pub fn norm(name: &str) -> String {
    name.replace('-', "_")
}

/// Parses the TOML subset the workspace manifests use.
fn parse_manifest(text: &str, manifest: &str, prefix: &str) -> CrateInfo {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        match section.as_str() {
            "package" if key == "name" => {
                name = value.trim().trim_matches('"').to_string();
            }
            "dependencies" | "dev-dependencies" => {
                // `serde.workspace = true` / `rand = "0.8"` /
                // `x = { package = "y", … }`
                let dep_key = key.split('.').next().unwrap_or(key).trim();
                let dep_name = value
                    .split_once("package")
                    .and_then(|(_, rest)| rest.split('"').nth(1))
                    .unwrap_or(dep_key);
                deps.push(Dep {
                    name: dep_name.to_string(),
                    line: (i + 1) as u32,
                    dev: section == "dev-dependencies",
                });
            }
            _ => {}
        }
    }
    CrateInfo {
        name,
        manifest: manifest.to_string(),
        prefix: prefix.to_string(),
        deps,
    }
}

/// Extracts top-level items (brace depth 0) plus `mod` declarations at
/// any depth — a `#[cfg(test)] mod tests { mod helper; }` still anchors
/// file resolution.
fn extract_items(toks: &[Token]) -> Vec<Item> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            i += 1;
            continue;
        }
        let kind = match t.ident() {
            Some(
                k @ ("fn" | "struct" | "enum" | "trait" | "impl" | "mod" | "type" | "const"
                | "static" | "use"),
            ) => k,
            _ => {
                i += 1;
                continue;
            }
        };
        if depth > 0 && kind != "mod" {
            i += 1;
            continue;
        }
        let (name, next) = item_name(toks, i, kind);
        out.push(Item {
            kind: kind.to_string(),
            name,
            line: t.line,
        });
        i = next;
    }
    out
}

/// The name of the item whose keyword is at `kw`, and the index to
/// resume scanning from (just past the name — bodies still scan so
/// nested `mod` declarations are seen).
fn item_name(toks: &[Token], kw: usize, kind: &str) -> (String, usize) {
    let mut i = kw + 1;
    if kind == "impl" {
        // `impl<T> Ty<T>` / `impl Trait for Ty`: the self type is the
        // ident after `for` when present, else the first ident after the
        // generic parameter list
        if toks.get(i).is_some_and(|t| t.is_punct('<')) {
            i = crate::determinism::skip_balanced(toks, i, '<', '>');
        }
        let mut name = String::new();
        while let Some(t) = toks.get(i) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_ident("for") {
                name.clear();
            } else if name.is_empty() {
                if let Some(id) = t.ident() {
                    name = id.to_string();
                }
            }
            i += 1;
        }
        return (name, i);
    }
    // `use a::b::{c, d};` → record the leading segment as the name
    let name = toks
        .get(i)
        .and_then(Token::ident)
        .unwrap_or_default()
        .to_string();
    (name, i + 1)
}

/// Workspace-crate imports: `use slam_math::…` and inline qualified
/// `slam_math::…` paths, deduplicated per (crate, line).
fn extract_imports(toks: &[Token], crate_names: &[String]) -> Vec<(String, u32)> {
    let normed: Vec<(String, String)> = crate_names.iter().map(|n| (norm(n), n.clone())).collect();
    let mut out: Vec<(String, u32)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(ident) = t.ident() else { continue };
        let Some((_, real)) = normed.iter().find(|(n, _)| n == ident) else {
            continue;
        };
        // require a path use: `slam_math ::` (or `use slam_math;`)
        let is_path = toks
            .get(i + 1)
            .zip(toks.get(i + 2))
            .is_some_and(|(a, b)| a.is_punct(':') && b.is_punct(':'));
        let is_use_decl = i > 0
            && toks[i - 1].is_ident("use")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(';'));
        // but not a segment of a longer path (`foo::slam_math_like`)
        let mid_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        if (is_path || is_use_decl) && !mid_path {
            let entry = (real.clone(), t.line);
            if !out.contains(&entry) {
                out.push(entry);
            }
        }
    }
    out
}

/// Resolves a `mod name;` declared in `file` to its candidate relative
/// paths (`dir/name.rs`, `dir/name/mod.rs`), following the 2018 rules.
pub fn resolve_mod(file: &Path, name: &str) -> Vec<PathBuf> {
    let dir = file.parent().unwrap_or_else(|| Path::new(""));
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let base = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    vec![
        base.join(format!("{name}.rs")),
        base.join(name).join("mod.rs"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_subset_parses_names_and_deps() {
        let text = "[package]\nname = \"slam-scene\"\n\n[dependencies]\n\
                    slam-math.workspace = true\nrand.workspace = true\n\n\
                    [dev-dependencies]\nproptest.workspace = true\n";
        let info = parse_manifest(text, "crates/slam-scene/Cargo.toml", "crates/slam-scene/");
        assert_eq!(info.name, "slam-scene");
        let names: Vec<(&str, bool)> = info.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            vec![("slam-math", false), ("rand", false), ("proptest", true)]
        );
        assert_eq!(info.deps[0].line, 5);
    }

    #[test]
    fn items_and_imports_are_extracted() {
        let src = "use slam_math::Mat4;\npub struct Frame;\nimpl Frame { fn new() {} }\n\
                   pub fn render(m: &slam_trace::Tracer) {}\nmod helper;\n\
                   #[cfg(test)]\nmod tests { mod fixtures; }\n";
        let toks = crate::lexer::lex(src);
        let items = extract_items(&toks);
        let kinds: Vec<(&str, &str)> = items
            .iter()
            .map(|i| (i.kind.as_str(), i.name.as_str()))
            .collect();
        assert!(kinds.contains(&("struct", "Frame")));
        assert!(kinds.contains(&("impl", "Frame")));
        assert!(kinds.contains(&("fn", "render")));
        assert!(kinds.contains(&("mod", "helper")));
        assert!(kinds.contains(&("mod", "fixtures")), "{kinds:?}");
        let names = vec!["slam-math".to_string(), "slam-trace".to_string()];
        let imports = extract_imports(&toks, &names);
        assert_eq!(
            imports,
            vec![("slam-math".into(), 1), ("slam-trace".into(), 4)]
        );
    }

    #[test]
    fn impl_trait_for_type_names_the_self_type() {
        let toks = crate::lexer::lex("impl<T: Clone> Reducer for Pool<T> { }");
        let items = extract_items(&toks);
        assert_eq!(items[0].kind, "impl");
        assert_eq!(items[0].name, "Pool");
    }

    #[test]
    fn mod_resolution_follows_2018_rules() {
        let from_root = resolve_mod(Path::new("crates/x/src/lib.rs"), "exec");
        assert_eq!(
            from_root,
            vec![
                PathBuf::from("crates/x/src/exec.rs"),
                PathBuf::from("crates/x/src/exec/mod.rs")
            ]
        );
        let from_child = resolve_mod(Path::new("crates/x/src/exec.rs"), "sync");
        assert_eq!(
            from_child,
            vec![
                PathBuf::from("crates/x/src/exec/sync.rs"),
                PathBuf::from("crates/x/src/exec/sync/mod.rs")
            ]
        );
    }
}
