//! Token-aware source lints for the concurrency discipline of the
//! serving and execution hot paths (RV071–RV073).
//!
//! The planned path runs levels concurrently on the `WorkerPool`, so
//! the hot paths must follow a small set of locking rules that keep the
//! pool deadlock-free. The lints walk every file under
//! [`HOT_PATH_ROOTS`] as a *token stream* (see [`crate::lexer`]), not
//! lines, so a call inside a string literal or block comment can never
//! fire a finding, and scanning resumes after an inline `#[cfg(test)]`
//! module instead of silently stopping at the first one.
//!
//! - **RV071** — lock-acquisition order is consistent: acquiring lock
//!   B while holding lock A and, elsewhere in the same crate, A while
//!   holding B is a deadlock waiting for the right interleaving. The
//!   engine records held→acquired edges per crate and reports cycles.
//! - **RV072** — no `Ordering::Relaxed` on publication-shaped atomic
//!   operations (`store`, `swap`, `compare_exchange*`): a Relaxed
//!   store does not order the data it guards. Counters (`fetch_*`,
//!   `load`) may stay Relaxed; a deliberate Relaxed publication can be
//!   waived with an `// ORDERING:` comment explaining why.
//! - **RV073** — no lock guard held across `pool.submit(…)`, `help()`,
//!   or a zero-argument `wait()`: the pool may run arbitrary tasks (or
//!   block on them) while the guard pins other threads.
//!   `Condvar::wait(guard)` takes the guard by value and is exempt.
//!
//! Panic-capable calls in the same four crates are clippy's job: each
//! `lib.rs` denies `unwrap_used`, `expect_used`, `panic`,
//! `unreachable`, `todo` and `unimplemented` outside tests. `unsafe`
//! needs no lint: every first-party crate forbids it.

use crate::diag::Diagnostic;
use crate::lexer::{tokenize, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Atomic methods that publish data to other threads (RV072). `load`
/// and the `fetch_*` read-modify-write counters are not listed: a
/// Relaxed counter is fine, a Relaxed publication is not.
const PUBLISHING_ATOMICS: &[&str] = &["store", "swap", "compare_exchange", "compare_exchange_weak"];

/// The hot-path source roots the lint covers, relative to the repo
/// root.
pub const HOT_PATH_ROOTS: &[&str] = &[
    "crates/fleet/src",
    "crates/serve/src",
    "crates/sparse/src",
    "crates/tensor/src",
];

/// A live lock guard the engine is tracking.
#[derive(Debug, Clone)]
struct GuardState {
    /// `let`-binding name, when there is one (`drop(name)` releases).
    binding: Option<String>,
    /// Dotted receiver path of the lock, e.g. `shared.gate`; `None`
    /// when the receiver is not a nameable place (a call result).
    resource: Option<String>,
    /// Brace depth at the acquisition site; the guard dies when the
    /// enclosing block closes.
    depth: usize,
    /// Un-bound (temporary) guards die at the end of the statement.
    temp: bool,
    /// Line of the acquisition, for diagnostics.
    line: usize,
}

/// Accumulates findings and the per-crate lock-order graph across
/// files. [`lint_source`] wraps it for single-file use; [`lint_paths`]
/// runs one engine over every hot-path file so RV071 sees
/// lock-order edges from different files of the same crate.
#[derive(Debug, Default)]
pub struct LintEngine {
    diags: Vec<Diagnostic>,
    /// (held resource, acquired resource) → location of the first
    /// acquisition that created the edge. Resources are keyed
    /// `crate-label:dotted.path` so distinct crates never interfere.
    lock_edges: BTreeMap<(String, String), String>,
}

impl LintEngine {
    /// A fresh engine with no findings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lints one file's source text. `label` seeds diagnostic
    /// locations as `label:line` and keys the lock-order graph by its
    /// leading `crates/<name>` component.
    pub fn lint_file(&mut self, label: &str, src: &str) {
        let toks = tokenize(src);
        let file = FileLint::new(label, &toks);
        file.run(self);
    }

    /// Finishes the run: checks the accumulated lock-order graph for
    /// cycles (RV071) and returns every finding.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        self.check_lock_order_cycles();
        self.diags
    }

    fn check_lock_order_cycles(&mut self) {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (held, acquired) in self.lock_edges.keys() {
            adj.entry(held.as_str())
                .or_default()
                .push(acquired.as_str());
        }
        let roots: Vec<&str> = adj.keys().copied().collect();
        // Iterative DFS with an explicit stack; a back edge to a node
        // on the current path is a cycle. Each cycle is reported once,
        // keyed by its sorted node set.
        let mut cycles: Vec<Vec<String>> = Vec::new();
        let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
        let mut done: BTreeSet<&str> = BTreeSet::new();
        for root in roots {
            if done.contains(root) {
                continue;
            }
            let mut path: Vec<&str> = Vec::new();
            let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
            while let Some(top) = stack.last_mut() {
                let (node, next) = (top.0, top.1);
                if next == 0 {
                    path.push(node);
                }
                let out: &[&str] = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
                if next >= out.len() {
                    stack.pop();
                    path.pop();
                    done.insert(node);
                    continue;
                }
                top.1 += 1;
                let to = out[next];
                if let Some(pos) = path.iter().position(|&n| n == to) {
                    let cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                    let mut key = cycle.clone();
                    key.sort();
                    if seen_cycles.insert(key) {
                        cycles.push(cycle);
                    }
                } else if !done.contains(to) {
                    stack.push((to, 0));
                }
            }
        }
        for cycle in cycles {
            self.report_cycle(&cycle);
        }
    }

    fn report_cycle(&mut self, cycle: &[String]) {
        let mut desc = String::new();
        let mut first_loc = None;
        for (k, held) in cycle.iter().enumerate() {
            let acquired = &cycle[(k + 1) % cycle.len()];
            let loc = self
                .lock_edges
                .get(&(held.clone(), acquired.clone()))
                .cloned()
                .unwrap_or_default();
            if first_loc.is_none() {
                first_loc = Some(loc.clone());
            }
            if !desc.is_empty() {
                desc.push_str(", ");
            }
            desc.push_str(&format!("{held} -> {acquired} (at {loc})"));
        }
        self.diags.push(Diagnostic::error(
            "RV071",
            first_loc.unwrap_or_default(),
            format!(
                "inconsistent lock-acquisition order — the cycle {desc} can deadlock \
                 under the right interleaving; pick one global order and stick to it"
            ),
        ));
    }
}

/// Per-file lint pass: walks the token stream with guard/scope state.
struct FileLint<'a> {
    label: &'a str,
    crate_label: String,
    toks: &'a [Token<'a>],
    /// Indices into `toks` of code tokens (not whitespace/comments).
    sig: Vec<usize>,
    /// Lines covered by any comment (for contiguous-block waivers).
    comment_lines: BTreeSet<usize>,
    /// Lines covered by a comment containing `ORDERING:`.
    ordering_lines: BTreeSet<usize>,
}

impl<'a> FileLint<'a> {
    fn new(label: &'a str, toks: &'a [Token<'a>]) -> Self {
        let sig = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_code())
            .map(|(i, _)| i)
            .collect();
        let mut comment_lines = BTreeSet::new();
        let mut ordering_lines = BTreeSet::new();
        for t in toks {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let span = t.line..=t.line + t.text.matches('\n').count();
            comment_lines.extend(span.clone());
            if t.text.contains("ORDERING:") {
                ordering_lines.extend(span);
            }
        }
        // `crates/tensor/src/pool.rs` → `crates/tensor`; shorter
        // labels (fixture snippets) key by their first component.
        let crate_label = label
            .split(['/', '\\'])
            .take(2)
            .collect::<Vec<_>>()
            .join("/");
        FileLint {
            label,
            crate_label,
            toks,
            sig,
            comment_lines,
            ordering_lines,
        }
    }

    fn text(&self, p: usize) -> &'a str {
        self.sig
            .get(p)
            .map(|&i| self.toks[i].text)
            .unwrap_or_default()
    }

    fn kind(&self, p: usize) -> Option<TokenKind> {
        self.sig.get(p).map(|&i| self.toks[i].kind)
    }

    fn line(&self, p: usize) -> usize {
        self.sig.get(p).map(|&i| self.toks[i].line).unwrap_or(0)
    }

    fn loc(&self, p: usize) -> String {
        format!("{}:{}", self.label, self.line(p))
    }

    /// From `open` (a `[`/`(`/`{`), returns the position just past the
    /// matching closer, balancing all three bracket kinds.
    fn skip_group(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut p = open;
        while p < self.sig.len() {
            match self.text(p) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return p + 1;
                    }
                }
                _ => {}
            }
            p += 1;
        }
        p
    }

    /// From a `]`/`)` closer at `close`, returns the position of the
    /// matching opener (or 0 at worst).
    fn matching_open(&self, close: usize) -> usize {
        let mut depth = 0usize;
        let mut p = close;
        loop {
            match self.text(p) {
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    depth -= 1;
                    if depth == 0 {
                        return p;
                    }
                }
                _ => {}
            }
            if p == 0 {
                return 0;
            }
            p -= 1;
        }
    }

    /// If position `p` starts a `#[cfg(test)]` attribute, returns the
    /// position just past the attributed item (skipping any further
    /// attributes, then either a `;`-terminated declaration or a
    /// braced body).
    fn cfg_test_skip(&self, p: usize) -> Option<usize> {
        if self.text(p) != "#" || self.text(p + 1) != "[" {
            return None;
        }
        let close = self.skip_group(p + 1);
        let attr: String = (p + 2..close.saturating_sub(1))
            .map(|q| self.text(q))
            .collect();
        if attr != "cfg(test)" {
            return None;
        }
        let mut q = close;
        while self.text(q) == "#" && self.text(q + 1) == "[" {
            q = self.skip_group(q + 1);
        }
        // Walk to the item's body `{` (skipping grouped prefixes like
        // a fn's parameter list) or its terminating `;`.
        while q < self.sig.len() {
            match self.text(q) {
                "{" => return Some(self.skip_group(q)),
                "(" | "[" => q = self.skip_group(q),
                ";" => return Some(q + 1),
                _ => q += 1,
            }
        }
        Some(q)
    }

    /// Dotted receiver path ending at sig position `end` (inclusive),
    /// e.g. for `self.shared.deques[i].lock()` with `end` on `]`'s
    /// predecessor chain: returns `shared.deques`. `None` when the
    /// receiver is not a nameable place.
    fn receiver_name(&self, mut end: usize) -> Option<String> {
        let mut parts: Vec<&str> = Vec::new();
        loop {
            match self.text(end) {
                "]" => {
                    // Drop index expressions: `deques[i]` names the
                    // same lock family whatever `i` is.
                    let open = self.matching_open(end);
                    if open == 0 {
                        break;
                    }
                    end = open.checked_sub(1)?;
                }
                _ if self.kind(end) == Some(TokenKind::Ident) => {
                    parts.push(self.text(end));
                    match end.checked_sub(1) {
                        Some(prev) if self.text(prev) == "." => match prev.checked_sub(1) {
                            Some(p2) => end = p2,
                            None => break,
                        },
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        parts.reverse();
        if parts.first() == Some(&"self") {
            parts.remove(0);
        }
        if parts.is_empty() {
            None
        } else {
            Some(parts.join("."))
        }
    }

    /// Lock resource named by a free-function call `lock(&self.m)`:
    /// the dotted path of the argument.
    fn free_lock_resource(&self, open: usize) -> Option<String> {
        let close = self.skip_group(open).checked_sub(1)?;
        let mut parts: Vec<&str> = Vec::new();
        let mut q = open + 1;
        while q < close {
            match self.text(q) {
                "&" | "mut" | "." => q += 1,
                "[" => q = self.skip_group(q),
                _ if self.kind(q) == Some(TokenKind::Ident) => {
                    if self.text(q) != "self" {
                        parts.push(self.text(q));
                    }
                    q += 1;
                }
                _ => return None,
            }
        }
        if parts.is_empty() {
            None
        } else {
            Some(parts.join("."))
        }
    }

    /// `let`-binding name starting after sig position `p` (the `let`):
    /// handles `let g`, `let mut g`, and single-field tuple-struct
    /// patterns `let Some(g)` / `let Ok(mut g)`.
    fn let_binding(&self, p: usize) -> Option<String> {
        let mut q = p + 1;
        if self.text(q) == "mut" {
            q += 1;
        }
        if self.kind(q) != Some(TokenKind::Ident) {
            return None;
        }
        if self.text(q + 1) == "(" {
            let mut r = q + 2;
            if self.text(r) == "mut" {
                r += 1;
            }
            if self.kind(r) == Some(TokenKind::Ident) && self.text(r + 1) == ")" {
                return Some(self.text(r).to_string());
            }
            return None;
        }
        Some(self.text(q).to_string())
    }

    /// A waiver holds when the marked comment sits on the same line or
    /// anywhere in the contiguous block of comment lines directly
    /// above it (multi-line justifications stay effective).
    fn waived(&self, lines: &BTreeSet<usize>, line: usize) -> bool {
        if lines.contains(&line) {
            return true;
        }
        let mut l = line;
        while l > 1 && self.comment_lines.contains(&(l - 1)) {
            l -= 1;
            if lines.contains(&l) {
                return true;
            }
        }
        false
    }

    fn run(self, engine: &mut LintEngine) {
        let mut p = 0usize;
        let mut brace_depth = 0usize;
        let mut group_depth = 0usize; // ( and [ nesting, for `;` significance
        let mut guards: Vec<GuardState> = Vec::new();
        let mut pending_let: Option<Option<String>> = None;
        while p < self.sig.len() {
            if let Some(next) = self.cfg_test_skip(p) {
                p = next.max(p + 1);
                continue;
            }
            let text = self.text(p);
            let kind = self.kind(p);
            match text {
                "{" => brace_depth += 1,
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= brace_depth);
                }
                "(" | "[" => group_depth += 1,
                ")" | "]" => group_depth = group_depth.saturating_sub(1),
                ";" if group_depth == 0 => {
                    pending_let = None;
                    guards.retain(|g| !g.temp);
                }
                _ => {}
            }
            if kind == Some(TokenKind::Ident) {
                match text {
                    "fn" => {
                        guards.clear();
                        pending_let = None;
                    }
                    "let" => pending_let = Some(self.let_binding(p)),
                    "drop"
                        if self.text(p + 1) == "("
                            && self.kind(p + 2) == Some(TokenKind::Ident)
                            && self.text(p + 3) == ")" =>
                    {
                        let name = self.text(p + 2);
                        guards.retain(|g| g.binding.as_deref() != Some(name));
                    }
                    "lock"
                        if self.text(p + 1) == "("
                            && (p == 0
                                || (self.text(p - 1) != "." && self.text(p - 1) != "fn")) =>
                    {
                        let resource = self.free_lock_resource(p + 1);
                        self.acquire(engine, &mut guards, &pending_let, resource, brace_depth, p);
                    }
                    _ => {}
                }
            }
            if text == "." && self.kind(p + 1) == Some(TokenKind::Ident) {
                let m = self.text(p + 1);
                let zero_arg = self.text(p + 2) == "(" && self.text(p + 3) == ")";
                match m {
                    "lock" | "read" | "write" if zero_arg => {
                        let resource = p.checked_sub(1).and_then(|r| self.receiver_name(r));
                        self.acquire(engine, &mut guards, &pending_let, resource, brace_depth, p);
                    }
                    "submit" if self.text(p + 2) == "(" && !guards.is_empty() => {
                        self.blocked_call(engine, &guards, p, "submit(…)");
                    }
                    "help" if zero_arg && !guards.is_empty() => {
                        self.blocked_call(engine, &guards, p, "help()");
                    }
                    "wait" if zero_arg && !guards.is_empty() => {
                        self.blocked_call(engine, &guards, p, "wait()");
                    }
                    m if PUBLISHING_ATOMICS.contains(&m) && self.text(p + 2) == "(" => {
                        let close = self.skip_group(p + 2);
                        let relaxed = (p + 3..close).any(|q| {
                            self.kind(q) == Some(TokenKind::Ident) && self.text(q) == "Relaxed"
                        });
                        if relaxed && !self.waived(&self.ordering_lines, self.line(p)) {
                            engine.diags.push(Diagnostic::error(
                                "RV072",
                                self.loc(p),
                                format!(
                                    "`Ordering::Relaxed` on `.{m}(…)` — a relaxed store does \
                                     not order the data it publishes to other threads; use \
                                     Release/Acquire (or AcqRel for RMW), or waive a counter \
                                     with an `// ORDERING:` comment"
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
            p += 1;
        }
    }

    /// Records a lock acquisition: lock-order edges against every held
    /// guard, then the new guard itself.
    fn acquire(
        &self,
        engine: &mut LintEngine,
        guards: &mut Vec<GuardState>,
        pending_let: &Option<Option<String>>,
        resource: Option<String>,
        brace_depth: usize,
        p: usize,
    ) {
        if let Some(acquired) = &resource {
            let acquired_key = format!("{}:{acquired}", self.crate_label);
            for g in guards.iter() {
                let Some(held) = &g.resource else { continue };
                if held == acquired {
                    continue; // same family: indistinguishable at token level
                }
                let held_key = format!("{}:{held}", self.crate_label);
                engine
                    .lock_edges
                    .entry((held_key, acquired_key.clone()))
                    .or_insert_with(|| self.loc(p));
            }
        }
        guards.push(GuardState {
            binding: pending_let.clone().flatten(),
            resource,
            depth: brace_depth,
            temp: pending_let.is_none(),
            line: self.line(p),
        });
    }

    fn blocked_call(&self, engine: &mut LintEngine, guards: &[GuardState], p: usize, what: &str) {
        let held = guards
            .iter()
            .map(|g| {
                format!(
                    "`{}` (line {})",
                    g.resource
                        .as_deref()
                        .or(g.binding.as_deref())
                        .unwrap_or("<guard>"),
                    g.line
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        engine.diags.push(Diagnostic::error(
            "RV073",
            self.loc(p),
            format!(
                "`.{what}` called while holding {held} — the pool can run arbitrary \
                 tasks (or block) while the guard pins other threads; release the \
                 guard first"
            ),
        ));
    }
}

/// Lints one source file's text. `path_label` seeds diagnostic
/// locations as `path:line`. Lock-order cycles (RV071) are detected
/// within the file; [`lint_paths`] detects them across a whole crate.
pub fn lint_source(path_label: &str, src: &str) -> Vec<Diagnostic> {
    let mut engine = LintEngine::new();
    engine.lint_file(path_label, src);
    engine.finish()
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every hot-path source file under `repo_root` with one shared
/// engine, so the RV071 lock-order graph spans each crate.
pub fn lint_paths(repo_root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for root in HOT_PATH_ROOTS {
        let dir = repo_root.join(root);
        if dir.is_dir() {
            rust_files(&dir, &mut files)?;
        }
    }
    let mut engine = LintEngine::new();
    for file in files {
        let src = fs::read_to_string(&file)?;
        let label = file
            .strip_prefix(repo_root)
            .unwrap_or(&file)
            .display()
            .to_string();
        engine.lint_file(&label, &src);
    }
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Relaxed publication: fires RV072 wherever it is linted.
    const RELAXED: &str = "s.ready.store(true, Ordering::Relaxed);";

    #[test]
    fn skips_test_modules() {
        let src = format!(
            "fn f() {{\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n}}\n\
             #[cfg(test)]\nmod tests {{\n    fn t() {{ {RELAXED} }}\n}}\n"
        );
        assert!(lint_source("x.rs", &src).is_empty());
    }

    #[test]
    fn resumes_after_inline_test_module() {
        // The pre-lexer scanner stopped at the first `#[cfg(test)]`
        // and never saw the store below it.
        let src = format!(
            "fn a() {{}}\n\
             #[cfg(test)]\nmod tests {{\n    fn t() {{ {RELAXED} }}\n}}\n\
             fn b(s: &S) {{\n    {RELAXED}\n}}\n"
        );
        let ds = lint_source("x.rs", &src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "RV072");
        assert_eq!(ds[0].location, "x.rs:7");
    }

    #[test]
    fn cfg_test_on_a_declaration_skips_just_that_item() {
        let src = format!(
            "#[cfg(test)]\nuse std::collections::HashMap;\n\
             fn b(s: &S) {{ {RELAXED} }}\n"
        );
        let ds = lint_source("x.rs", &src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].location, "x.rs:3");
    }

    #[test]
    fn string_literals_and_comments_cannot_trip_a_lint() {
        // A guard is held throughout, so a `.submit(` or `.wait()` read
        // as code would fire RV073, and the Relaxed store RV072.
        let src = "fn f(pool: &WorkerPool) -> String {\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n    /* a .store(true, Ordering::Relaxed) in a block comment\n       spanning lines */\n    let s = \"x.store(1, Ordering::Relaxed) pool.submit(t)\";\n    let r = r#\"q.help() \" quoted\"#; // batch.wait() trailing\n    format!(\"{g}{s}{r}\")\n}\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn opposite_lock_orders_fire_rv071() {
        let src = "\
fn ab(s: &S) {
    let a = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let b = s.b.lock().unwrap_or_else(|e| e.into_inner());
    use_both(a, b);
}
fn ba(s: &S) {
    let b = s.b.lock().unwrap_or_else(|e| e.into_inner());
    let a = s.a.lock().unwrap_or_else(|e| e.into_inner());
    use_both(a, b);
}
";
        let ds = lint_source("crates/x/src/l.rs", src);
        assert!(ds.iter().any(|d| d.code == "RV071"), "{ds:?}");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "\
fn ab(s: &S) {
    let a = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let b = s.b.lock().unwrap_or_else(|e| e.into_inner());
    use_both(a, b);
}
fn ab2(s: &S) {
    let a = s.a.lock().unwrap_or_else(|e| e.into_inner());
    let b = s.b.lock().unwrap_or_else(|e| e.into_inner());
    use_both(a, b);
}
";
        assert!(lint_source("crates/x/src/l.rs", src).is_empty());
    }

    #[test]
    fn free_function_lock_participates_in_rv071() {
        let src = "\
fn ab(s: &S) {
    let a = lock(&s.a);
    let b = lock(&s.b);
    use_both(a, b);
}
fn ba(s: &S) {
    let b = lock(&s.b);
    let a = lock(&s.a);
    use_both(a, b);
}
";
        let ds = lint_source("crates/x/src/l.rs", src);
        assert!(ds.iter().any(|d| d.code == "RV071"), "{ds:?}");
    }

    #[test]
    fn relaxed_publication_store_fires_rv072() {
        let src = "fn publish(s: &S) {\n    s.ready.store(true, Ordering::Relaxed);\n}\n";
        let ds = lint_source("x.rs", src);
        assert!(ds.iter().any(|d| d.code == "RV072"), "{ds:?}");
    }

    #[test]
    fn relaxed_counters_and_waived_stores_are_clean() {
        let src = "\
fn count(s: &S) {
    s.hits.fetch_add(1, Ordering::Relaxed);
    let n = s.hits.load(Ordering::Relaxed);
    // ORDERING: monotonically-increasing generation counter; readers
    // only compare for change, no data is published through it.
    s.generation.store(n, Ordering::Relaxed);
    s.ready.store(true, Ordering::Release);
}
";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn lock_held_across_submit_fires_rv073() {
        let src = "\
fn bad(s: &S, pool: &WorkerPool) {
    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());
    let batch = pool.submit(make_tasks(&q));
    batch.wait();
}
";
        let ds = lint_source("x.rs", src);
        assert!(ds.iter().any(|d| d.code == "RV073"), "{ds:?}");
        // wait() at line 4 also runs under the guard (still in scope).
        assert!(
            ds.iter().filter(|d| d.code == "RV073").count() >= 2,
            "{ds:?}"
        );
    }

    #[test]
    fn dropping_the_guard_before_submit_is_clean() {
        let src = "\
fn good(s: &S, pool: &WorkerPool) {
    let q = s.queue.lock().unwrap_or_else(|e| e.into_inner());
    let tasks = make_tasks(&q);
    drop(q);
    let batch = pool.submit(tasks);
    pool.help();
    batch.wait();
}
";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn condvar_wait_with_guard_argument_is_exempt() {
        let src = "\
fn park(s: &S) {
    let mut gate = lock(&s.gate);
    while !gate.ready {
        gate = s.work.wait(gate).unwrap_or_else(|e| e.into_inner());
    }
}
";
        assert!(lint_source("x.rs", src).is_empty());
    }
}
