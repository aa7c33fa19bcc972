//! Corpus I/O: superblocks as JSONL streams, plus synthesis via
//! `vcsched-workload`.
//!
//! A corpus file holds one compact-JSON [`Superblock`] per line — the
//! serde form `vcsched gen` emits, so any tool in the workspace (or an
//! external producer) can assemble corpora with `cat`.

use std::io::{BufRead, Write as _};
use std::path::Path;

use vcsched_ir::Superblock;
use vcsched_workload::{benchmark, generate_block, InputSet};

/// Where a batch run's superblocks come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusSource {
    /// Read blocks from a JSONL file (one superblock per line).
    Jsonl(std::path::PathBuf),
    /// Synthesize `count` blocks of a named benchmark via
    /// `vcsched-workload`.
    Synth {
        /// Benchmark name (`099.go`, `mpeg2enc`, …).
        bench: String,
        /// Number of blocks.
        count: usize,
        /// Corpus seed.
        seed: u64,
    },
}

impl CorpusSource {
    /// Materializes the source into superblocks.
    pub fn load(&self) -> Result<Vec<Superblock>, String> {
        match self {
            CorpusSource::Jsonl(path) => read_jsonl(path),
            CorpusSource::Synth { bench, count, seed } => {
                let spec = benchmark(bench).ok_or_else(|| {
                    let names: Vec<&str> = vcsched_workload::benchmarks()
                        .iter()
                        .map(|b| b.name)
                        .collect();
                    format!("unknown benchmark `{bench}`; one of {names:?}")
                })?;
                Ok((0..*count)
                    .map(|i| generate_block(&spec, *seed, i as u64, InputSet::Ref))
                    .collect())
            }
        }
    }

    /// A short human-readable description for summaries.
    pub fn describe(&self) -> String {
        match self {
            CorpusSource::Jsonl(path) => path.display().to_string(),
            CorpusSource::Synth { bench, count, seed } => {
                format!("{bench} x{count} (seed {seed:#x})")
            }
        }
    }
}

/// Reads a JSONL superblock corpus.
fn read_jsonl(path: &Path) -> Result<Vec<Superblock>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut blocks = Vec::new();
    for (lineno, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        let sb: Superblock = serde_json::from_str(&line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        blocks.push(sb);
    }
    Ok(blocks)
}

/// Writes a JSONL superblock corpus (one compact JSON object per line).
pub fn write_jsonl(path: &Path, blocks: &[Superblock]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for sb in blocks {
        let line = serde_json::to_string(sb).map_err(|e| e.to_string())?;
        writeln!(w, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_roundtrip() {
        let src = CorpusSource::Synth {
            bench: "130.li".to_owned(),
            count: 5,
            seed: 11,
        };
        let blocks = src.load().expect("synthesis succeeds");
        assert_eq!(blocks.len(), 5);

        let path =
            std::env::temp_dir().join(format!("vcsched-corpus-test-{}.jsonl", std::process::id()));
        write_jsonl(&path, &blocks).expect("write");
        let back = read_jsonl(&path).expect("read");
        assert_eq!(blocks, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_benchmark_is_a_clean_error() {
        let src = CorpusSource::Synth {
            bench: "nonesuch".to_owned(),
            count: 1,
            seed: 0,
        };
        let err = src.load().expect_err("must fail");
        assert!(err.contains("unknown benchmark"), "{err}");
    }
}
