//! The host label every result carries, so that no number is compared
//! with one from another machine by accident.

use crate::digest::fnv1a;
use mlpsim_telemetry::Json;
use std::path::Path;
use std::process::Command;

/// Where and from what source a result was produced.
#[derive(Clone, Debug)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_rev: String,
    /// Whether `git status` lists changes; `unknown` outside a checkout.
    pub dirty: String,
    /// FNV-1a digest over the path and bytes of every source file the
    /// benchmark builds from. It identifies the source even where there
    /// is no git metadata.
    pub source_digest: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Source files under `dir` (recursively), skipping build output.
fn source_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            source_files(&path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
            out.push(path);
        }
    }
}

fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["crates", "vendor", "src", "perfbench"] {
        source_files(&root.join(top), &mut files);
    }
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            all.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            all.push(0);
            all.extend_from_slice(&bytes);
        }
    }
    format!("{:016x}", fnv1a(&all))
}

impl Host {
    /// Probe the host; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let root_str = root.to_string_lossy().to_string();
        let git_rev = command_line("git", &["-C", &root_str, "rev-parse", "HEAD"])
            .unwrap_or_else(|| "none".into());
        let dirty = match command_line("git", &["-C", &root_str, "status", "--porcelain"]) {
            Some(s) if git_rev != "none" => (!s.is_empty()).to_string(),
            _ => "unknown".into(),
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_rev,
            dirty,
            source_digest: source_digest(root),
        }
    }

    /// The label as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("dirty".into(), Json::Str(self.dirty.clone())),
            (
                "source_digest".into(),
                Json::Str(self.source_digest.clone()),
            ),
        ])
    }
}
