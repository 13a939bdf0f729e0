//! Output: named metrics with units, the run record, peak memory and a
//! small JSON writer (the repository builds without serde).

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Version of the result and span-file layout.
pub const SCHEMA: &str = "hls-perfbench/1";

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `txn/s`, `s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// A JSON value, written with Rust's shortest round-trip float format so
/// every measured digit survives.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The `metrics` object of a result: `{name: {value, unit}}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Peak resident memory of this process, MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Commit and dirty flag of the checkout at `root`, when it is a git
/// repository (`.git` present there; parents are not searched).
fn git_state(root: &Path) -> (Option<String>, Option<bool>) {
    let dir = root.join(".git");
    if !dir.exists() {
        return (None, None);
    }
    let git = || {
        let mut c = Command::new("git");
        c.arg("--git-dir").arg(&dir).arg("--work-tree").arg(root);
        c
    };
    let commit = command_output(git().args(["rev-parse", "HEAD"]));
    let dirty = command_output(git().args(["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    (commit, dirty)
}

/// CPU model and cache sizes of CPU 0, from `/proc` and `/sys`.
fn cpu() -> (Option<String>, Vec<String>) {
    let model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let caches = (0..8)
        .map_while(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = read(&format!("{dir}/level"))?;
            let kind = read(&format!("{dir}/type")).unwrap_or_default();
            let size = read(&format!("{dir}/size")).unwrap_or_default();
            Some(format!("L{level} {kind} {size}"))
        })
        .collect();
    (model, caches)
}

/// What a result was measured on and with; `root` is the checkout.
pub fn run_record(
    root: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    attempted: u64,
) -> Json {
    let (commit, dirty) = git_state(root);
    let (model, caches) = cpu();
    let opt_str = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("workload", Json::str(workload)),
        ("seed", Json::str(seed.to_string())),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("attempted", Json::Num(attempted as f64)),
        ("git_commit", opt_str(commit)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("cpu_model", opt_str(model)),
        (
            "caches",
            Json::Arr(caches.into_iter().map(Json::Str).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys_and_parses() {
        let line = result_line(
            true,
            3,
            0,
            metrics_json(&[Metric {
                name: "txn_per_s",
                unit: "txn/s",
                value: 1234.5678,
            }]),
        );
        let v = hls_obs::parse_json(&line).expect("valid JSON");
        let hls_obs::JsonValue::Obj(pairs) = &v else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("txn_per_s")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1234.5678));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("txn/s"));
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd").render();
        assert_eq!(s, r#""a\"b\\c\u000ad""#);
        assert_eq!(
            hls_obs::parse_json(&s).unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn record_names_the_machine() {
        let r = run_record(Path::new("."), "paper", 7, 10, false, 4).render();
        for key in [
            "schema",
            "git_commit",
            "git_dirty",
            "rustc",
            "nproc",
            "cpu_model",
            "caches",
            "seed",
            "attempted",
        ] {
            assert!(r.contains(&format!("\"{key}\":")), "{key} missing: {r}");
        }
    }
}
