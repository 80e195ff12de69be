//! Durable mid-job checkpoints: the farm-level container that lets an
//! interrupted job restart from its last saved cycle instead of cycle 0.
//!
//! ## File format
//!
//! ```text
//! checkpoint := magic "OSMFCKP1" (8 bytes)
//!             | version     u32 LE (currently 1)
//!             | job_digest  u64 LE  (FNV-1a of the job's canonical encoding)
//!             | cycle       u64 LE  (control step the machine was cut at)
//!             | trace_hash  u64 LE  (running transition-trace digest)
//!             | trace_total u64 LE  (transitions recorded so far)
//!             | machine_len u32 LE | machine bytes (model's sealed snapshot)
//!             | seal        u64 LE  (FNV-1a over everything above)
//! ```
//!
//! The `job_digest` binds a checkpoint to the exact job that wrote it (same
//! canonical encoding as the sweep journal header, so a job edit invalidates
//! stale checkpoints the same way it invalidates a journal). The
//! `trace_hash`/`trace_total` pair re-seeds the model's digest-only trace on
//! restore ([`osm_core::Trace::digest_only_resumed`]), which is what makes a
//! resumed run's final digest equal an uninterrupted run's.
//!
//! ## Crash consistency
//!
//! [`store`] never exposes a torn checkpoint: bytes are written to a
//! temporary sibling, fsynced, atomically renamed over the target, and the
//! containing directory is fsynced so the rename itself is durable. A crash
//! at any point leaves either the previous complete checkpoint or the new
//! complete checkpoint — [`load`] treats anything else (missing file, short
//! file, bad seal, foreign job) as "no checkpoint" and the job simply runs
//! from cycle 0 again. Checkpointing is strictly best-effort: an unwritable
//! checkpoint directory slows recovery but never changes a job's result.

use crate::job::SimJob;
use crate::journal::jobs_digest;
use osm_core::persist::fnv;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"OSMFCKP1";
const VERSION: u32 = 1;
/// Fixed-size prefix: magic + version + job_digest + cycle + trace_hash +
/// trace_total + machine_len.
const PREFIX_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + 4;

/// One decoded mid-job checkpoint: where the machine was cut, the running
/// trace digest state, and the model's own sealed snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCheckpoint {
    /// Control step (ISS: retired instructions) the machine was cut at.
    pub cycle: u64,
    /// Running FNV trace digest at the cut (ISS: the `(pc, taken)` digest
    /// accumulator).
    pub trace_hash: u64,
    /// Transitions recorded so far (ISS: steps executed).
    pub trace_total: u64,
    /// The model's sealed machine snapshot (each model's own checkpoint
    /// codec; opaque at this layer).
    pub machine: Vec<u8>,
}

/// Encodes a checkpoint for the job identified by `job_digest`
/// (see [`job_checkpoint_digest`]).
pub fn encode(job_digest: u64, ckpt: &JobCheckpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREFIX_LEN + ckpt.machine.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&job_digest.to_le_bytes());
    out.extend_from_slice(&ckpt.cycle.to_le_bytes());
    out.extend_from_slice(&ckpt.trace_hash.to_le_bytes());
    out.extend_from_slice(&ckpt.trace_total.to_le_bytes());
    out.extend_from_slice(&(ckpt.machine.len() as u32).to_le_bytes());
    out.extend_from_slice(&ckpt.machine);
    let seal = fnv(&out);
    out.extend_from_slice(&seal.to_le_bytes());
    out
}

/// Decodes checkpoint bytes, accepting them only if complete, sealed, and
/// written for the job identified by `job_digest`. Any damage or mismatch
/// yields `None` — a stale or torn checkpoint means "start from scratch",
/// never a wrong result.
pub fn decode(bytes: &[u8], job_digest: u64) -> Option<JobCheckpoint> {
    if bytes.len() < PREFIX_LEN + 8 || &bytes[..8] != MAGIC {
        return None;
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    if u32_at(8) != VERSION || u64_at(12) != job_digest {
        return None;
    }
    let machine_len = u32_at(PREFIX_LEN - 4) as usize;
    if bytes.len() != PREFIX_LEN + machine_len + 8 {
        return None;
    }
    let sealed = &bytes[..PREFIX_LEN + machine_len];
    if fnv(sealed) != u64_at(PREFIX_LEN + machine_len) {
        return None;
    }
    Some(JobCheckpoint {
        cycle: u64_at(20),
        trace_hash: u64_at(28),
        trace_total: u64_at(36),
        machine: bytes[PREFIX_LEN..PREFIX_LEN + machine_len].to_vec(),
    })
}

/// The digest binding a checkpoint to one job: the sweep journal's
/// canonical job encoding ([`jobs_digest`]) over just this job.
pub fn job_checkpoint_digest(job: &SimJob) -> u64 {
    jobs_digest(std::slice::from_ref(job))
}

/// The on-disk location for job `index`'s checkpoint inside `dir`.
pub fn checkpoint_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("job-{index}.ckpt"))
}

/// Fsyncs a directory so renames/creations inside it are durable.
/// Best-effort by design: not every platform or filesystem supports opening
/// a directory for fsync, and durability of *metadata* must never turn into
/// a hard failure of the sweep itself.
pub(crate) fn fsync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Atomically replaces `path` with `bytes`: temp sibling + fsync + rename +
/// directory fsync. A crash mid-store leaves the previous checkpoint (or
/// none) intact, never a torn file under the final name.
pub fn store(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent);
    }
    Ok(())
}

/// Loads and validates the checkpoint at `path` for the job identified by
/// `job_digest`. Missing, torn, corrupt or foreign checkpoints all read as
/// `None`.
pub fn load(path: &Path, job_digest: u64) -> Option<JobCheckpoint> {
    let mut bytes = Vec::new();
    File::open(path).ok()?.read_to_end(&mut bytes).ok()?;
    decode(&bytes, job_digest)
}

/// Per-job checkpoint controller handed to the runners: owns the cadence
/// (`checkpoint_every` cycles), the on-disk path, the job-identity digest,
/// and an optional notification hook the farm uses to journal partial
/// progress. Constructed only for jobs that opted in; runners treat `None`
/// as "no checkpointing" and stay byte-identical to the pre-checkpoint
/// code path.
pub struct CheckpointCtl<'a> {
    every: u64,
    path: PathBuf,
    job_digest: u64,
    last: u64,
    notify: Option<Box<dyn FnMut(u64) + Send + 'a>>,
}

impl std::fmt::Debug for CheckpointCtl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointCtl")
            .field("every", &self.every)
            .field("path", &self.path)
            .field("job_digest", &self.job_digest)
            .field("last", &self.last)
            .field("notify", &self.notify.is_some())
            .finish()
    }
}

impl<'a> CheckpointCtl<'a> {
    /// A controller for job `index` writing under `dir`, or `None` when the
    /// job did not opt in (`checkpoint_every == 0`) or asked for
    /// observability (the event log and metrics are not part of a machine
    /// checkpoint, so a restored observability job would report different
    /// metrics than an uninterrupted one — checkpointing such jobs is
    /// refused rather than silently wrong).
    pub fn new(job: &SimJob, index: usize, dir: &Path) -> Option<CheckpointCtl<'static>> {
        if job.checkpoint_every == 0 || job.observability {
            return None;
        }
        Some(CheckpointCtl {
            every: job.checkpoint_every,
            path: checkpoint_path(dir, index),
            job_digest: job_checkpoint_digest(job),
            last: 0,
            notify: None,
        })
    }

    /// Attaches a hook called with the checkpoint cycle after every durable
    /// save (the farm journals a partial-progress record from it).
    pub fn with_notify(mut self, notify: impl FnMut(u64) + Send + 'a) -> CheckpointCtl<'a> {
        self.notify = Some(Box::new(notify));
        self
    }

    /// The controller's on-disk checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads this job's checkpoint, if a valid one exists.
    pub fn load(&self) -> Option<JobCheckpoint> {
        load(&self.path, self.job_digest)
    }

    /// The configured checkpoint cadence in cycles (always nonzero).
    pub fn cadence(&self) -> u64 {
        self.every
    }

    /// True once the machine has advanced `checkpoint_every` cycles past
    /// the last save (or past the restore point).
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.last.saturating_add(self.every)
    }

    /// Records that the job restored at `cycle`, so the next save lands a
    /// full interval later.
    pub fn mark_restored(&mut self, cycle: u64) {
        self.last = cycle;
    }

    /// Durably saves a checkpoint (best-effort: an I/O failure skips the
    /// save and the notification but never perturbs the job), then fires
    /// the notification hook.
    pub fn save(&mut self, cycle: u64, trace_hash: u64, trace_total: u64, machine: &[u8]) {
        let bytes = encode(
            self.job_digest,
            &JobCheckpoint {
                cycle,
                trace_hash,
                trace_total,
                machine: machine.to_vec(),
            },
        );
        if store(&self.path, &bytes).is_ok() {
            self.last = cycle;
            if let Some(notify) = self.notify.as_mut() {
                notify(cycle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobCheckpoint {
        JobCheckpoint {
            cycle: 12_345,
            trace_hash: 0xdead_beef_cafe_f00d,
            trace_total: 67_890,
            machine: (0..=255u8).collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = sample();
        let bytes = encode(42, &ckpt);
        assert_eq!(decode(&bytes, 42), Some(ckpt));
    }

    #[test]
    fn damage_and_mismatch_read_as_no_checkpoint() {
        let ckpt = sample();
        let bytes = encode(42, &ckpt);
        // Foreign job.
        assert_eq!(decode(&bytes, 43), None);
        // Truncation at every boundary class.
        for cut in [0, 7, PREFIX_LEN - 1, PREFIX_LEN + 4, bytes.len() - 1] {
            assert_eq!(decode(&bytes[..cut], 42), None, "cut at {cut}");
        }
        // Single bit flips anywhere break the seal (or the prefix checks).
        for pos in [0, 9, 15, 25, PREFIX_LEN + 3, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert_eq!(decode(&bad, 42), None, "flip at {pos}");
        }
    }

    #[test]
    fn store_is_atomic_and_load_validates() {
        let dir = std::env::temp_dir().join(format!("simfarm-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, 7);
        assert_eq!(load(&path, 1), None, "missing file reads as none");

        let ckpt = sample();
        store(&path, &encode(1, &ckpt)).unwrap();
        assert_eq!(load(&path, 1), Some(ckpt.clone()));
        assert_eq!(load(&path, 2), None, "foreign job digest rejected");

        // Overwrite with a newer checkpoint; the temp sibling must be gone.
        let newer = JobCheckpoint { cycle: 99_999, ..ckpt };
        store(&path, &encode(1, &newer)).unwrap();
        assert_eq!(load(&path, 1), Some(newer));
        assert!(!path.with_extension("ckpt.tmp").exists());

        // A torn file under the final name reads as none.
        fs::write(&path, &encode(1, &sample())[..PREFIX_LEN + 3]).unwrap();
        assert_eq!(load(&path, 1), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ctl_cadence_and_identity() {
        let dir = std::env::temp_dir().join(format!("simfarm-ctl-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut job = SimJob::minirisc_random(3, 32, 50_000);
        assert!(CheckpointCtl::new(&job, 0, &dir).is_none(), "opt-in only");
        job.checkpoint_every = 1_000;
        let mut obs_job = job.clone();
        obs_job.observability = true;
        assert!(
            CheckpointCtl::new(&obs_job, 0, &dir).is_none(),
            "observability jobs never checkpoint"
        );

        let mut notified = Vec::new();
        let mut ctl = CheckpointCtl::new(&job, 0, &dir)
            .unwrap()
            .with_notify(|cycle| notified.push(cycle));
        assert!(!ctl.due(999));
        assert!(ctl.due(1_000));
        ctl.save(1_000, 0xAB, 17, b"machine-bytes");
        assert!(!ctl.due(1_999));
        assert!(ctl.due(2_000));
        drop(ctl);
        assert_eq!(notified, vec![1_000]);

        // The saved checkpoint binds to the job; a behavioral edit orphans it.
        let ctl = CheckpointCtl::new(&job, 0, &dir).unwrap();
        assert_eq!(ctl.load().map(|c| c.cycle), Some(1_000));
        let mut edited = job.clone();
        edited.seed += 1;
        let ctl = CheckpointCtl::new(&edited, 0, &dir).unwrap();
        assert_eq!(ctl.load(), None);
        // But a cadence-only edit does not (checkpoint_every is operational,
        // not behavioral — same rule as the sweep journal header).
        let mut recadenced = job.clone();
        recadenced.checkpoint_every = 5_000;
        let ctl = CheckpointCtl::new(&recadenced, 0, &dir).unwrap();
        assert_eq!(ctl.load().map(|c| c.cycle), Some(1_000));
        let _ = fs::remove_dir_all(&dir);
    }
}
