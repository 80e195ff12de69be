//! The durable sweep journal: append-only, length-prefixed, FNV-digested.
//!
//! ## File format
//!
//! ```text
//! header  := magic "OSMFARMJ" (8 bytes)
//!          | version  u32 LE (currently 1)
//!          | job_count u32 LE
//!          | jobs_digest u64 LE   (FNV-1a over the canonical job list)
//! record  := payload_len u32 LE
//!          | payload  (UTF-8 JSON, one completed JobResult + its index)
//!          | payload_digest u64 LE (FNV-1a over payload)
//! journal := header record*
//! ```
//!
//! Records are [`osm_core::persist`] frames ([`ByteWriter::put_frame`] /
//! [`ByteReader::take_frame`] with the standard FNV-1a-64, [`fnv`]). Each
//! record is appended with a **single write** and flushed as soon as its
//! job completes, so a crashed or killed sweep loses at most the in-flight
//! jobs. On replay:
//!
//! * a **torn trailing write** (file ends mid-record) is tolerated — the
//!   valid prefix is kept, the tail is dropped and overwritten on resume;
//! * a **corrupt record** (fully present but failing its integrity digest,
//!   or undecodable) is rejected with [`JournalError::CorruptRecord`] —
//!   corruption is never silently accepted as a completed job;
//! * a journal whose header names a **different job list** is rejected
//!   with [`JournalError::ManifestMismatch`].
//!
//! The payload preserves every field the farm report renders or folds
//! (outcome taxonomy in full, scheduler [`Stats`], the whole [`JobMetrics`]
//! record with its stall cycles, fault totals), which is what makes a
//! resumed sweep's consolidated report byte-identical to an uninterrupted
//! run's.
//!
//! ## One record kind
//!
//! Every record is one completed [`JobResult`] plus its index. Mid-job
//! progress lives in the job's checkpoint file alone ([`crate::checkpoint`]).
//! Journals written by earlier builds may also hold mid-job progress frames
//! (`"record": "partial"`, job index + checkpointed cycle); replay skips
//! such a frame once its digest checks out, so those journals still resume.
//!
//! Journals are durable, not just ordered: the header is fsynced (and the
//! containing directory fsynced, so the journal's own direntry survives a
//! host crash) at create, and every record append is fsynced before the
//! farm moves on.

use crate::error::JournalError;
use crate::job::{JobMetrics, JobOutcome, JobResult, ModelKind, SimJob, StallSummary};
use crate::report::FleetStallCause;
use bench::json::{parse, Json};
use osm_core::persist::{fnv, ByteReader, ByteWriter};
use osm_core::{FaultStats, StallKind, Stats};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"OSMFARMJ";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// FNV-1a digest of the canonical job-list encoding: every field that
/// affects a job's behavior, in job order. Two job lists with equal digests
/// produce interchangeable journals; the header check rejects everything
/// else. Deliberately excluded: [`SimJob::checkpoint_every`] — the
/// checkpoint cadence is operational (like the worker count), so tuning it
/// between runs neither orphans a journal nor a durable checkpoint.
pub fn jobs_digest(jobs: &[SimJob]) -> u64 {
    let mut canon = String::new();
    for job in jobs {
        canon.push_str(&format!(
            "{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{:?}\x1f{}\x1f{:?}\x1f{:?}\x1f{}\x1f{:?}\x1e",
            job.name,
            job.model.name(),
            job.workload.spelling(),
            job.seed,
            job.max_cycles,
            job.scheduler,
            job.observability,
            job.stall_budget,
            job.deadline_ms,
            job.retries,
            job.faults,
        ));
    }
    fnv(canon.as_bytes())
}

/// Checked length narrowing for the format's `u32` size fields. A plain
/// `as u32` here would silently wrap an oversized sweep or record into a
/// journal whose header/length prefix lies about its contents and
/// round-trips wrong; refuse with a typed error instead.
fn len_u32(what: &'static str, len: usize) -> Result<u32, JournalError> {
    u32::try_from(len).map_err(|_| JournalError::TooLarge {
        what,
        len: len as u64,
    })
}

/// The journal header bytes for a job list.
///
/// # Errors
/// [`JournalError::TooLarge`] if the job count does not fit the header's
/// `u32` field.
pub fn header_bytes(jobs: &[SimJob]) -> Result<Vec<u8>, JournalError> {
    let job_count = len_u32("job count", jobs.len())?;
    let mut w = ByteWriter::new();
    w.put_raw(MAGIC);
    w.put_u32(VERSION);
    w.put_u32(job_count);
    w.put_u64(jobs_digest(jobs));
    Ok(w.into_bytes())
}

/// One completed job, encoded as a self-contained record
/// (`len | payload | digest`).
///
/// # Errors
/// [`JournalError::TooLarge`] if the encoded payload does not fit the
/// record's `u32` length prefix.
pub fn record_bytes(index: usize, result: &JobResult) -> Result<Vec<u8>, JournalError> {
    let payload = result_to_json(index, result).to_string().into_bytes();
    len_u32("record payload", payload.len())?;
    let mut w = ByteWriter::new();
    w.put_frame(&payload, fnv);
    Ok(w.into_bytes())
}

/// Replays journal bytes against the job list they claim to cover.
///
/// Returns the completed results by job index plus the byte length of the
/// valid prefix (a resume truncates the file to that length before
/// appending, so a torn tail is physically discarded). Duplicate indices
/// keep the last record — a job finished in a torn run and re-run after
/// resume writes the identical result twice. See the module docs for the
/// tolerance rules: torn tails kept as valid prefix, corrupt records
/// rejected, older mid-job progress frames skipped.
pub fn parse_bytes(
    bytes: &[u8],
    jobs: &[SimJob],
) -> Result<(BTreeMap<usize, JobResult>, u64), JournalError> {
    let mut r = ByteReader::new(bytes);
    check_header(&mut r, jobs)?;
    let completed = parse_frames(&mut r, jobs)?;
    Ok((completed, r.position() as u64))
}

/// Reads the header and checks it against `jobs`.
fn check_header(r: &mut ByteReader<'_>, jobs: &[SimJob]) -> Result<(), JournalError> {
    let bad = |why: String| JournalError::BadHeader { why };
    let len = r.remaining();
    let short = || JournalError::BadHeader {
        why: format!("{len} bytes is shorter than the {HEADER_LEN}-byte header"),
    };
    let magic = r.take_raw(MAGIC.len()).ok_or_else(short)?;
    let version = r.take_u32().ok_or_else(short)?;
    let job_count = r.take_u32().ok_or_else(short)?;
    let digest = r.take_u64().ok_or_else(short)?;
    if magic != MAGIC {
        return Err(bad("magic bytes are not OSMFARMJ".into()));
    }
    if version != VERSION {
        return Err(bad(format!("unsupported journal version {version}")));
    }
    let expected = jobs_digest(jobs);
    if digest != expected || job_count as usize != jobs.len() {
        return Err(JournalError::ManifestMismatch {
            journal: digest,
            manifest: expected,
        });
    }
    Ok(())
}

/// The frame loop shared by the journal and the child stream: reads result
/// records from the cursor until the input ends or tears, keeping the last
/// result per job index, and leaves the cursor at the end of the valid
/// prefix. Complete-but-corrupt frames are rejected; digest-valid mid-job
/// progress frames from older journals are skipped.
fn parse_frames(
    r: &mut ByteReader<'_>,
    jobs: &[SimJob],
) -> Result<BTreeMap<usize, JobResult>, JournalError> {
    let mut completed = BTreeMap::new();
    loop {
        let offset = r.position() as u64;
        let corrupt = |why: String| JournalError::CorruptRecord { offset, why };
        let Some(payload) = r
            .take_frame(fnv)
            .map_err(|_| corrupt("integrity digest mismatch".into()))?
        else {
            return Ok(completed);
        };
        let text = std::str::from_utf8(payload).map_err(|e| corrupt(e.to_string()))?;
        let json = parse(text).map_err(|e| corrupt(e.to_string()))?;
        if json.get("record").and_then(Json::as_str) == Some("partial") {
            continue;
        }
        let (index, result) = result_from_json(&json, jobs).map_err(corrupt)?;
        completed.insert(index, result);
    }
}

/// Parses a **headerless** stream of journal-framed records — the
/// process-isolation executor's child→parent result protocol
/// ([`crate::exec`]) — into results by job index. The frames are exactly
/// the journal's record frames; a child killed mid-write leaves a torn
/// tail, tolerated the same way.
pub(crate) fn parse_record_stream(
    bytes: &[u8],
    jobs: &[SimJob],
) -> Result<BTreeMap<usize, JobResult>, JournalError> {
    parse_frames(&mut ByteReader::new(bytes), jobs)
}

/// Reads and replays a sweep journal file.
pub fn read_journal(
    path: impl AsRef<Path>,
    jobs: &[SimJob],
) -> Result<BTreeMap<usize, JobResult>, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(parse_bytes(&bytes, jobs)?.0)
}

/// The farm's append handle on a sweep journal. One record is written (in
/// a single `write_all`) and flushed per completed job; see the module
/// docs for the format and crash semantics.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Creates (or truncates) a journal for this job list, writes the
    /// header, and makes both the header and the journal's directory entry
    /// durable (fsync of the file, then of the containing directory — a
    /// host crash right after create must not leave a resumable sweep
    /// pointing at a journal that was never durably linked).
    pub fn create(path: impl AsRef<Path>, jobs: &[SimJob]) -> Result<JournalWriter, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        file.write_all(&header_bytes(jobs)?)?;
        file.sync_all()?;
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            crate::checkpoint::fsync_dir(parent);
        }
        Ok(JournalWriter { file, path })
    }

    /// Opens an existing journal for resumption: validates the header
    /// against `jobs`, replays the completed records, truncates any torn
    /// tail, and positions the handle for appending. Returns the writer and
    /// the completed results by job index.
    pub fn resume(
        path: impl AsRef<Path>,
        jobs: &[SimJob],
    ) -> Result<(JournalWriter, BTreeMap<usize, JobResult>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (completed, valid_len) = parse_bytes(&bytes, jobs)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        file.sync_data()?;
        Ok((JournalWriter { file, path }, completed))
    }

    /// Appends one completed job atomically (single write) and fsyncs it —
    /// once this returns, the result survives a host crash, not just a
    /// process crash.
    pub fn record(&mut self, index: usize, result: &JobResult) -> Result<(), JournalError> {
        self.file.write_all(&record_bytes(index, result)?)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// The journal's path (for operator messages).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// JSON encoding of completed jobs
// ---------------------------------------------------------------------------

/// Encodes a u64 counter losslessly: a JSON number while exact in `f64`,
/// a `"0x…"` hex string beyond 2^53 (the same fallback the farm report
/// already uses for digests). [`get_u64`] accepts both spellings.
fn num(v: u64) -> Json {
    Json::lossless_u64(v)
}

/// Decodes either counter spelling: an exact JSON number, or the hex-string
/// fallback [`num`] emits above 2^53.
fn json_u64(j: &Json) -> Option<u64> {
    j.lossless_as_u64()
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(json_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn stall_kind_name(kind: StallKind) -> &'static str {
    match kind {
        StallKind::Wedged => "wedged",
        StallKind::Livelock => "livelock",
        StallKind::Starvation => "starvation",
    }
}

fn stall_kind_parse(s: &str) -> Result<StallKind, String> {
    match s {
        "wedged" => Ok(StallKind::Wedged),
        "livelock" => Ok(StallKind::Livelock),
        "starvation" => Ok(StallKind::Starvation),
        other => Err(format!("unknown stall kind `{other}`")),
    }
}

fn outcome_to_json(outcome: &JobOutcome) -> Json {
    let mut obj = BTreeMap::new();
    match outcome {
        JobOutcome::Halted => {
            obj.insert("kind".into(), Json::Str("halted".into()));
        }
        JobOutcome::BudgetExhausted => {
            obj.insert("kind".into(), Json::Str("budget-exhausted".into()));
        }
        JobOutcome::Failed(message) => {
            obj.insert("kind".into(), Json::Str("failed".into()));
            obj.insert("message".into(), Json::Str(message.clone()));
        }
        JobOutcome::Panicked { payload, .. } => {
            // The captured backtrace is deliberately not journaled: it is
            // ASLR-dependent, and journal records must stay deterministic.
            obj.insert("kind".into(), Json::Str("panicked".into()));
            obj.insert("payload".into(), Json::Str(payload.clone()));
        }
        JobOutcome::Killed { signal } => {
            obj.insert("kind".into(), Json::Str("killed".into()));
            obj.insert("signal".into(), num(u64::from(signal.unsigned_abs())));
        }
        JobOutcome::Stalled(s) => {
            obj.insert("kind".into(), Json::Str("stalled".into()));
            obj.insert(
                "stall_kind".into(),
                Json::Str(stall_kind_name(s.kind).into()),
            );
            obj.insert("cycle".into(), num(s.cycle));
            obj.insert("stalled_for".into(), num(s.stalled_for));
            obj.insert("budget".into(), num(s.budget));
            obj.insert("detail".into(), Json::Str(s.detail.clone()));
        }
        JobOutcome::DeadlineExceeded { cycles, deadline_ms } => {
            obj.insert("kind".into(), Json::Str("deadline-exceeded".into()));
            obj.insert("cycles".into(), num(*cycles));
            obj.insert("deadline_ms".into(), num(*deadline_ms));
        }
        JobOutcome::Quarantined { attempts, last } => {
            obj.insert("kind".into(), Json::Str("quarantined".into()));
            obj.insert("attempts".into(), num(u64::from(*attempts)));
            obj.insert("last".into(), outcome_to_json(last));
        }
    }
    Json::Obj(obj)
}

fn outcome_from_json(j: &Json) -> Result<JobOutcome, String> {
    match get_str(j, "kind")? {
        "halted" => Ok(JobOutcome::Halted),
        "budget-exhausted" => Ok(JobOutcome::BudgetExhausted),
        "failed" => Ok(JobOutcome::Failed(get_str(j, "message")?.to_owned())),
        "panicked" => Ok(JobOutcome::Panicked {
            payload: get_str(j, "payload")?.to_owned(),
            backtrace: None,
        }),
        "killed" => Ok(JobOutcome::Killed {
            signal: i32::try_from(get_u64(j, "signal")?)
                .map_err(|_| "signal out of range".to_owned())?,
        }),
        "stalled" => Ok(JobOutcome::Stalled(StallSummary {
            kind: stall_kind_parse(get_str(j, "stall_kind")?)?,
            cycle: get_u64(j, "cycle")?,
            stalled_for: get_u64(j, "stalled_for")?,
            budget: get_u64(j, "budget")?,
            detail: get_str(j, "detail")?.to_owned(),
        })),
        "deadline-exceeded" => Ok(JobOutcome::DeadlineExceeded {
            cycles: get_u64(j, "cycles")?,
            deadline_ms: get_u64(j, "deadline_ms")?,
        }),
        "quarantined" => Ok(JobOutcome::Quarantined {
            attempts: u32::try_from(get_u64(j, "attempts")?)
                .map_err(|_| "attempts out of range".to_owned())?,
            last: Box::new(outcome_from_json(
                j.get("last").ok_or("missing `last`")?,
            )?),
        }),
        other => Err(format!("unknown outcome kind `{other}`")),
    }
}

fn stats_to_json(stats: &Stats) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("cycles".into(), num(stats.cycles));
    obj.insert("transitions".into(), num(stats.transitions));
    obj.insert("condition_failures".into(), num(stats.condition_failures));
    obj.insert("vetoed_edges".into(), num(stats.vetoed_edges));
    obj.insert("idle_steps".into(), num(stats.idle_steps));
    obj.insert("restarts".into(), num(stats.restarts));
    // Once the named counters; always empty now.
    obj.insert("named".into(), Json::Obj(BTreeMap::new()));
    Json::Obj(obj)
}

fn stats_from_json(j: &Json) -> Result<Stats, String> {
    let mut stats = Stats::new();
    stats.cycles = get_u64(j, "cycles")?;
    stats.transitions = get_u64(j, "transitions")?;
    stats.condition_failures = get_u64(j, "condition_failures")?;
    stats.vetoed_edges = get_u64(j, "vetoed_edges")?;
    stats.idle_steps = get_u64(j, "idle_steps")?;
    stats.restarts = get_u64(j, "restarts")?;
    if let Some(Json::Obj(named)) = j.get("named") {
        if let Some(name) = named.keys().next() {
            return Err(format!(
                "named counter `{name}`: `Stats` no longer keeps named counters"
            ));
        }
    }
    Ok(stats)
}

/// The whole [`JobMetrics`] record: its counters and its stall cycles by
/// `(manager, primitive)`.
fn metrics_to_json(m: &JobMetrics) -> Json {
    let stalls = m
        .stalls
        .iter()
        .map(|c| {
            let mut obj = BTreeMap::new();
            obj.insert("manager".into(), Json::Str(c.manager.clone()));
            obj.insert("op".into(), Json::Str(c.op.clone()));
            obj.insert("cycles".into(), num(c.cycles));
            Json::Obj(obj)
        })
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert("completions".into(), num(m.completions));
    obj.insert("token_grants".into(), num(m.token_grants));
    obj.insert("token_denials".into(), num(m.token_denials));
    obj.insert("stalls".into(), Json::Arr(stalls));
    Json::Obj(obj)
}

/// Reads a [`metrics_to_json`] record back. A record written before the
/// stall list was journaled replays with no stall causes.
fn metrics_from_json(j: &Json) -> Result<JobMetrics, String> {
    let stall = |c: &Json| {
        Ok(FleetStallCause {
            manager: get_str(c, "manager")?.to_owned(),
            op: get_str(c, "op")?.to_owned(),
            cycles: get_u64(c, "cycles")?,
        })
    };
    let stalls = match j.get("stalls") {
        None => Vec::new(),
        Some(list) => list
            .as_arr()
            .ok_or("non-array `stalls`")?
            .iter()
            .map(stall)
            .collect::<Result<_, String>>()?,
    };
    Ok(JobMetrics {
        completions: get_u64(j, "completions")?,
        token_grants: get_u64(j, "token_grants")?,
        token_denials: get_u64(j, "token_denials")?,
        stalls,
    })
}

fn faults_to_json(s: &FaultStats) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("denied_allocates".into(), num(s.denied_allocates));
    obj.insert("denied_inquires".into(), num(s.denied_inquires));
    obj.insert("deferred_releases".into(), num(s.deferred_releases));
    obj.insert("dropped_tokens".into(), num(s.dropped_tokens));
    obj.insert("corrupted_tokens".into(), num(s.corrupted_tokens));
    Json::Obj(obj)
}

fn faults_from_json(j: &Json) -> Result<FaultStats, String> {
    Ok(FaultStats {
        denied_allocates: get_u64(j, "denied_allocates")?,
        denied_inquires: get_u64(j, "denied_inquires")?,
        deferred_releases: get_u64(j, "deferred_releases")?,
        dropped_tokens: get_u64(j, "dropped_tokens")?,
        corrupted_tokens: get_u64(j, "corrupted_tokens")?,
    })
}

fn result_to_json(index: usize, r: &JobResult) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("index".into(), num(index as u64));
    obj.insert("name".into(), Json::Str(r.name.clone()));
    obj.insert("model".into(), Json::Str(r.model.name().into()));
    obj.insert("workload".into(), Json::Str(r.workload.clone()));
    obj.insert("outcome".into(), outcome_to_json(&r.outcome));
    obj.insert("cycles".into(), num(r.cycles));
    obj.insert("retired".into(), num(r.retired));
    obj.insert("exit_code".into(), num(u64::from(r.exit_code)));
    obj.insert("digest".into(), Json::Str(format!("{:016x}", r.digest)));
    obj.insert("attempts".into(), num(u64::from(r.attempts)));
    if let Some(cycle) = r.restored_from {
        obj.insert("restored_from".into(), num(cycle));
    }
    if let Some(stats) = &r.stats {
        obj.insert("stats".into(), stats_to_json(stats));
    }
    if let Some(metrics) = &r.metrics {
        obj.insert("metrics".into(), metrics_to_json(metrics));
    }
    if let Some(faults) = &r.fault_stats {
        obj.insert("faults".into(), faults_to_json(faults));
    }
    Json::Obj(obj)
}

fn result_from_json(j: &Json, jobs: &[SimJob]) -> Result<(usize, JobResult), String> {
    let index = get_u64(j, "index")? as usize;
    if index >= jobs.len() {
        return Err(format!("job index {index} out of range ({} jobs)", jobs.len()));
    }
    let model_name = get_str(j, "model")?;
    let model = ModelKind::parse(model_name)
        .ok_or_else(|| format!("unknown model `{model_name}`"))?;
    let digest_hex = get_str(j, "digest")?;
    let digest = u64::from_str_radix(digest_hex, 16)
        .map_err(|_| format!("bad digest `{digest_hex}`"))?;
    let result = JobResult {
        name: get_str(j, "name")?.to_owned(),
        model,
        workload: get_str(j, "workload")?.to_owned(),
        outcome: outcome_from_json(j.get("outcome").ok_or("missing `outcome`")?)?,
        cycles: get_u64(j, "cycles")?,
        retired: get_u64(j, "retired")?,
        exit_code: u32::try_from(get_u64(j, "exit_code")?)
            .map_err(|_| "exit_code out of range".to_owned())?,
        digest,
        attempts: u32::try_from(get_u64(j, "attempts")?)
            .map_err(|_| "attempts out of range".to_owned())?,
        restored_from: j
            .get("restored_from")
            .map(|v| json_u64(v).ok_or_else(|| "non-integer `restored_from`".to_owned()))
            .transpose()?,
        stats: j.get("stats").map(stats_from_json).transpose()?,
        metrics: j.get("metrics").map(metrics_from_json).transpose()?,
        fault_stats: j.get("faults").map(faults_from_json).transpose()?,
    };
    Ok((index, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{run_job, WorkloadSpec};
    use crate::report::FarmReport;

    /// One exclusive stage: an ADL machine whose OSMs, when there are
    /// several, queue for it and charge stall cycles.
    const ONE_STAGE: &str = "machine m { manager s : exclusive(1); \
        osm op { states I, S; initial I; edge go : I -> S { allocate s[0]; } \
        edge back : S -> I { release s[held]; } } }";

    fn sample_jobs() -> Vec<SimJob> {
        (0..3)
            .map(|i| SimJob::minirisc_random(i, 32, 10_000))
            .collect()
    }

    fn journal_bytes_for(jobs: &[SimJob], upto: usize) -> Vec<u8> {
        let mut bytes = header_bytes(jobs).unwrap();
        for (i, job) in jobs.iter().take(upto).enumerate() {
            bytes.extend_from_slice(&record_bytes(i, &run_job(job)).unwrap());
        }
        bytes
    }

    #[test]
    fn outcomes_round_trip_through_json() {
        let outcomes = [
            JobOutcome::Halted,
            JobOutcome::BudgetExhausted,
            JobOutcome::Failed("some \"quoted\" error\nwith newline".into()),
            JobOutcome::Panicked {
                payload: "chaos:panic workload fired".into(),
                backtrace: None,
            },
            JobOutcome::Killed { signal: 9 },
            JobOutcome::Stalled(StallSummary {
                kind: StallKind::Livelock,
                cycle: 1234,
                stalled_for: 500,
                budget: 500,
                detail: "livelock detected at control step 1234".into(),
            }),
            JobOutcome::DeadlineExceeded {
                cycles: 99,
                deadline_ms: 10,
            },
            JobOutcome::Quarantined {
                attempts: 2,
                last: Box::new(JobOutcome::Panicked {
                    payload: "inner".into(),
                    backtrace: None,
                }),
            },
            JobOutcome::Quarantined {
                attempts: 3,
                last: Box::new(JobOutcome::Killed { signal: 6 }),
            },
        ];
        for outcome in outcomes {
            let encoded = outcome_to_json(&outcome).to_string();
            let decoded = outcome_from_json(&parse(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, outcome, "{encoded}");
        }
    }

    #[test]
    fn records_round_trip_byte_identically() {
        let jobs = sample_jobs();
        let bytes = journal_bytes_for(&jobs, 3);
        let (completed, valid_len) = parse_bytes(&bytes, &jobs).unwrap();
        assert_eq!(valid_len as usize, bytes.len());
        assert_eq!(completed.len(), 3);
        for (i, job) in jobs.iter().enumerate() {
            let original = run_job(job);
            let replayed = &completed[&i];
            assert_eq!(replayed.name, original.name);
            assert_eq!(replayed.digest, original.digest);
            assert_eq!(replayed.outcome, original.outcome);
            assert_eq!(replayed.cycles, original.cycles);
            // Re-encoding the replayed result reproduces the exact record.
            assert_eq!(record_bytes(i, replayed).unwrap(), record_bytes(i, &original).unwrap());
        }
    }

    #[test]
    fn torn_tail_is_tolerated_corrupt_record_rejected() {
        let jobs = sample_jobs();
        let full = journal_bytes_for(&jobs, 2);
        let header_and_one = journal_bytes_for(&jobs, 1).len();

        // Torn tail: cut anywhere inside the second record.
        let torn = &full[..header_and_one + 5];
        let (completed, valid_len) = parse_bytes(torn, &jobs).unwrap();
        assert_eq!(completed.len(), 1);
        assert_eq!(valid_len as usize, header_and_one);

        // Corrupt record: flip a payload byte of the first record.
        let mut corrupt = full.clone();
        corrupt[HEADER_LEN + 10] ^= 0xFF;
        match parse_bytes(&corrupt, &jobs) {
            Err(JournalError::CorruptRecord { offset, .. }) => {
                assert_eq!(offset as usize, HEADER_LEN)
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_job_list_is_rejected() {
        let jobs = sample_jobs();
        let bytes = journal_bytes_for(&jobs, 1);
        let mut other = sample_jobs();
        other[0].seed = 999;
        match parse_bytes(&bytes, &other) {
            Err(JournalError::ManifestMismatch { .. }) => {}
            other => panic!("expected ManifestMismatch, got {other:?}"),
        }
        // Same list parses fine.
        assert!(parse_bytes(&bytes, &jobs).is_ok());
    }

    /// Regression: u64 counters above 2^53 must round-trip through the
    /// journal's JSON payload bit-exactly. The old `Json::Num(v as f64)`
    /// encoding silently rounded them (2^53 + 1 re-read as 2^53), so a
    /// resumed long-haul sweep would consolidate wrong totals.
    #[test]
    fn counters_above_2_pow_53_round_trip_losslessly() {
        let big = (1u64 << 53) + 1;
        assert_ne!(big as f64 as u64, big, "2^53+1 is not exact in f64");
        let jobs = sample_jobs();
        let mut result = run_job(&jobs[0]);
        result.cycles = big;
        result.retired = big;
        let mut stats = Stats::new();
        stats.transitions = big;
        result.stats = Some(stats);
        result.metrics = Some(JobMetrics {
            completions: big,
            token_grants: big,
            token_denials: big,
            stalls: vec![FleetStallCause {
                manager: "fetch".into(),
                op: "alloc".into(),
                cycles: big,
            }],
        });
        let mut bytes = header_bytes(&jobs).unwrap();
        bytes.extend_from_slice(&record_bytes(0, &result).unwrap());
        let (completed, _) = parse_bytes(&bytes, &jobs).unwrap();
        let replayed = &completed[&0];
        assert_eq!(replayed.cycles, big);
        assert_eq!(replayed.retired, big);
        assert_eq!(replayed.stats.as_ref().map(|s| s.transitions), Some(big));
        assert_eq!(replayed.metrics, result.metrics);
        // The spelling in the payload is the 0x-hex fallback, not a
        // rounded number.
        let payload = String::from_utf8_lossy(&bytes);
        assert!(payload.contains(&format!("\"0x{big:x}\"")), "{payload}");
    }

    /// A resumed sweep and one under process isolation read their jobs back
    /// from journal frames. For observability jobs on every OSM model kind
    /// the replayed results consolidate to the in-process report, fleet
    /// stall causes included.
    #[test]
    fn observability_results_replay_to_the_in_process_report() {
        let specint = || WorkloadSpec::Named("specint".into());
        let mut jobs = vec![
            SimJob::new(ModelKind::Sa1100, specint(), 5_000),
            SimJob::new(ModelKind::Ppc750, specint(), 5_000),
            SimJob::new(
                ModelKind::Vliw,
                WorkloadSpec::Ilp { iters: 50, body: 6 },
                100_000,
            ),
            SimJob::adl("adl/observed", ONE_STAGE, 3, 1_000),
        ];
        for job in &mut jobs {
            job.observability = true;
        }
        let results: Vec<JobResult> = jobs.iter().map(run_job).collect();
        for r in &results {
            let stalls = r.metrics.as_ref().map_or(0, |m| m.stalls.len());
            assert!(stalls > 0, "{} charged no stall cycles", r.name);
        }
        let mut bytes = header_bytes(&jobs).unwrap();
        for (i, r) in results.iter().enumerate() {
            bytes.extend_from_slice(&record_bytes(i, r).unwrap());
        }
        let (replayed, _) = parse_bytes(&bytes, &jobs).unwrap();
        let journaled = FarmReport::consolidate(replayed.into_values().collect(), 1, 0.0);
        let in_process = FarmReport::consolidate(results, 1, 0.0);
        assert_eq!(journaled.canonical_text(), in_process.canonical_text());
        assert_eq!(journaled.canonical_json(), in_process.canonical_json());
    }

    /// A metrics record written before the stall list was journaled still
    /// replays, with no stall causes.
    #[test]
    fn metrics_records_without_a_stall_list_replay_without_stall_causes() {
        let mut job = SimJob::adl("adl/observed", ONE_STAGE, 3, 1_000);
        job.observability = true;
        let jobs = vec![job];
        let result = run_job(&jobs[0]);
        let mut payload = result_to_json(0, &result);
        let Json::Obj(fields) = &mut payload else {
            panic!("a record is a JSON object");
        };
        let Some(Json::Obj(metrics)) = fields.get_mut("metrics") else {
            panic!("an observability record carries metrics");
        };
        assert!(metrics.remove("stalls").is_some());
        let mut w = ByteWriter::new();
        w.put_raw(&header_bytes(&jobs).unwrap());
        w.put_frame(payload.to_string().as_bytes(), fnv);
        let (completed, _) = parse_bytes(&w.into_bytes(), &jobs).unwrap();
        let replayed = completed[&0].metrics.clone().expect("metrics replay");
        let original = result.metrics.expect("metrics enabled");
        assert!(!original.stalls.is_empty());
        assert!(replayed.stalls.is_empty());
        assert_eq!(replayed.completions, original.completions);
        assert_eq!(replayed.token_denials, original.token_denials);
    }

    /// `Stats` keeps no named counters: a record still writes the empty
    /// `"named":{}` it always had, and one that names a counter is corrupt.
    #[test]
    fn records_write_no_named_counters_and_refuse_one() {
        let jobs = sample_jobs();
        let mut result = run_job(&jobs[0]);
        result.stats = Some(Stats::new());
        let payload = result_to_json(0, &result).to_string();
        assert!(payload.contains(r#""named":{}"#), "{payload}");
        let named = payload.replace(r#""named":{}"#, r#""named":{"retired":5}"#);
        let mut w = ByteWriter::new();
        w.put_raw(&header_bytes(&jobs).unwrap());
        w.put_frame(named.as_bytes(), fnv);
        match parse_bytes(&w.into_bytes(), &jobs) {
            Err(JournalError::CorruptRecord { offset, why }) => {
                assert_eq!(offset as usize, HEADER_LEN);
                assert!(why.contains("retired"), "{why}");
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    /// Regression: the format's u32 length fields refuse values they would
    /// otherwise silently truncate (`jobs.len() as u32`,
    /// `payload.len() as u32`).
    #[test]
    fn oversized_length_fields_are_refused_not_truncated() {
        match len_u32("job count", u32::MAX as usize + 1) {
            Err(JournalError::TooLarge { what, len }) => {
                assert_eq!(what, "job count");
                assert_eq!(len, u64::from(u32::MAX) + 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // In-range lengths pass through exactly.
        assert_eq!(len_u32("record payload", 42).unwrap(), 42);
        assert_eq!(
            len_u32("record payload", u32::MAX as usize).unwrap(),
            u32::MAX
        );
        // And the public encoders stay fine for ordinary inputs.
        let jobs = sample_jobs();
        assert!(header_bytes(&jobs).is_ok());
        assert!(record_bytes(0, &run_job(&jobs[0])).is_ok());
    }

    #[test]
    fn journal_create_record_resume_in_a_fresh_directory_is_durable() {
        // Exercises the fsync paths end to end: create (file + directory
        // sync), per-record sync, and a resume that appends after the
        // replayed records.
        let dir = std::env::temp_dir().join(format!("simfarm-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        let jobs = sample_jobs();
        {
            let mut w = JournalWriter::create(&path, &jobs).unwrap();
            w.record(0, &run_job(&jobs[0])).unwrap();
        }
        let (mut w, completed) = JournalWriter::resume(&path, &jobs).unwrap();
        assert_eq!(w.path(), path);
        assert_eq!(completed.keys().copied().collect::<Vec<_>>(), vec![0]);
        w.record(2, &run_job(&jobs[2])).unwrap();
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), {
            let mut bytes = journal_bytes_for(&jobs, 1);
            bytes.extend_from_slice(&record_bytes(2, &run_job(&jobs[2])).unwrap());
            bytes
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_digest_tracks_every_supervision_field() {
        let base = sample_jobs();
        let d0 = jobs_digest(&base);
        for mutate in [
            (|j: &mut SimJob| j.stall_budget = Some(1)) as fn(&mut SimJob),
            |j| j.deadline_ms = Some(1),
            |j| j.retries = 9,
            |j| j.max_cycles += 1,
            |j| j.seed += 1,
            |j| j.name.push('x'),
        ] {
            let mut jobs = base.clone();
            mutate(&mut jobs[0]);
            assert_ne!(jobs_digest(&jobs), d0);
        }
        // The checkpoint cadence is operational, not behavioral: tuning it
        // must not orphan an existing journal.
        let mut jobs = base.clone();
        jobs[0].checkpoint_every = 10_000;
        assert_eq!(jobs_digest(&jobs), d0);
    }
}
