//! Provenance of a result: the machine, the compiler, the source
//! revision and the seeds that produced it.

use crate::json::Json;
use std::process::Command;

/// CPU features that change which code paths the field arithmetic and
/// the compressor can take.
const FLAGS: [&str; 4] = ["pclmulqdq", "avx2", "gfni", "avx512f"];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu() -> (String, Vec<Json>) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let model = field("model name").unwrap_or_else(|| "unknown".into());
    let have = field("flags").unwrap_or_default();
    let have: Vec<&str> = have.split_whitespace().collect();
    let flags = FLAGS
        .iter()
        .map(|f| {
            Json::obj()
                .with("flag", *f)
                .with("present", have.contains(f))
        })
        .collect();
    (model, flags)
}

/// The checkout's git revision and whether its tree differs from it;
/// `unknown` outside a git checkout.
fn git() -> (String, Json) {
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = run(&["status", "--porcelain", "--untracked-files=no"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty()));
            (rev, dirty)
        }
        None => ("unknown".into(), Json::Null),
    }
}

/// The provenance block printed with every result. `recheck_seed` is the
/// second seed a claim made on `seed` should be re-checked with.
pub fn block(workload: &str, seed: u64, recheck_seed: u64, seconds: u64, trace: bool) -> Json {
    let (model, flags) = cpu();
    let (rev, dirty) = git();
    Json::obj()
        .with("workload", workload)
        .with("seed", seed)
        .with("recheck_seed", recheck_seed)
        .with("seconds", seconds)
        .with("trace", trace)
        .with("nproc", nproc())
        .with("cpu_model", model)
        .with("cpu_flags", Json::Arr(flags))
        .with("rustc", env!("PERFBENCH_RUSTC"))
        .with("git_rev", rev)
        .with("git_dirty", dirty)
}
