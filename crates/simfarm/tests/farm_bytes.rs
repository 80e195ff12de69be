//! Golden pin of the farm's file bytes, and the decoders' behavior on
//! arbitrary input.
//!
//! `tests/golden/farm_bytes.txt` records the length and standard
//! FNV-1a-64 of a sweep journal's header, three of its result records and
//! one `OSMFCKP1` job-checkpoint file, so files written by earlier builds
//! stay readable. It also holds, as hex, a mid-job progress frame
//! (`"record":"partial"`) as earlier builds journaled it: today's replay
//! must skip it.

use osm_core::persist::{fnv, ByteReader, ByteWriter};
use proptest::prelude::*;
use simfarm::checkpoint::{self, JobCheckpoint};
use simfarm::journal::{header_bytes, parse_bytes, record_bytes};
use simfarm::{read_journal, run_job, JournalWriter, SimJob};

const GOLDEN: &str = include_str!("golden/farm_bytes.txt");
const LEGACY_PARTIAL: &str = "legacy/partial-1-2048";

fn sample_jobs() -> Vec<SimJob> {
    (0..3)
        .map(|i| SimJob::minirisc_random(i, 32, 10_000))
        .collect()
}

fn sample_checkpoint() -> JobCheckpoint {
    JobCheckpoint {
        cycle: 12_345,
        trace_hash: 0xdead_beef,
        trace_total: 67_890,
        machine: (0..=255).collect(),
    }
}

/// The pinned case lines, without comments and the legacy frame.
fn pinned_cases() -> String {
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#') && !line.starts_with(LEGACY_PARTIAL))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The legacy partial frame's bytes, decoded from the golden file's hex.
fn legacy_partial_frame() -> Vec<u8> {
    let hex = GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix(LEGACY_PARTIAL))
        .expect("golden file holds the legacy frame")
        .trim();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

#[test]
fn farm_bytes_match_the_pinned_golden() {
    let jobs = sample_jobs();
    let mut cases = vec![("journal/header".to_owned(), header_bytes(&jobs).unwrap())];
    for (i, job) in jobs.iter().enumerate() {
        cases.push((
            format!("journal/result-{i}"),
            record_bytes(i, &run_job(job)).unwrap(),
        ));
    }
    let file = checkpoint::encode(0x1234_5678_9abc_def0, &sample_checkpoint());
    assert_eq!(
        checkpoint::decode(&file, 0x1234_5678_9abc_def0),
        Some(sample_checkpoint())
    );
    cases.push(("checkpoint/osmfckp1".to_owned(), file));
    let rendered: String = cases
        .iter()
        .map(|(case, bytes)| format!("{case} {} {:016x}\n", bytes.len(), fnv(bytes)))
        .collect();
    assert_eq!(rendered, pinned_cases());
}

#[test]
fn legacy_partial_frames_are_skipped_on_replay_and_resume() {
    let jobs = sample_jobs();
    let results: Vec<_> = jobs.iter().map(run_job).collect();
    let partial = legacy_partial_frame();
    let mut bytes = header_bytes(&jobs).unwrap();
    bytes.extend_from_slice(&record_bytes(0, &results[0]).unwrap());
    let after_first = bytes.len();
    bytes.extend_from_slice(&partial);
    bytes.extend_from_slice(&record_bytes(2, &results[2]).unwrap());

    let (completed, valid_len) = parse_bytes(&bytes, &jobs).unwrap();
    assert_eq!(valid_len as usize, bytes.len());
    assert_eq!(completed.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
    for (&i, replayed) in &completed {
        assert_eq!(
            record_bytes(i, replayed).unwrap(),
            record_bytes(i, &results[i]).unwrap()
        );
    }

    // A torn legacy frame is a torn tail like any other.
    let torn = &bytes[..after_first + partial.len() - 1];
    let (completed, valid_len) = parse_bytes(torn, &jobs).unwrap();
    assert_eq!(completed.len(), 1);
    assert_eq!(valid_len as usize, after_first);
    // A damaged one is corruption like any other.
    let mut damaged = bytes.clone();
    damaged[after_first + 10] ^= 0x01;
    assert!(matches!(
        parse_bytes(&damaged, &jobs),
        Err(simfarm::JournalError::CorruptRecord { offset, .. }) if offset as usize == after_first
    ));

    // Such a journal resumes: the missing job is appended after the
    // legacy frame, and the result is a complete sweep.
    let dir = std::env::temp_dir().join(format!("simfarm-legacy-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.journal");
    std::fs::write(&path, &bytes).unwrap();
    let (mut writer, completed) = JournalWriter::resume(&path, &jobs).unwrap();
    assert_eq!(completed.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
    writer.record(1, &results[1]).unwrap();
    drop(writer);
    let replayed = read_journal(&path, &jobs).unwrap();
    assert_eq!(replayed.len(), 3);
    assert_eq!(replayed[&1].digest, results[1].digest);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `payload` as one journal record frame, with its digest or with `stored`
/// in the digest's place.
fn framed(payload: &[u8], stored: Option<u64>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match stored {
        None => w.put_frame(payload, fnv),
        Some(stored) => {
            w.put_bytes(payload);
            w.put_u64(stored);
        }
    }
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes — raw, behind a valid journal header, as the
    /// payload of a frame with a valid or an arbitrary digest, or sealed
    /// into a checkpoint file — may decode to `None`, a value or a typed
    /// error, but never panic.
    #[test]
    fn farm_decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        job_digest in any::<u64>(),
    ) {
        let jobs = sample_jobs();
        let header = header_bytes(&jobs).unwrap();

        let mut r = ByteReader::new(&bytes);
        while let Ok(Some(_)) = r.take_frame(fnv) {}
        prop_assert!(r.position() <= bytes.len());

        for input in [
            bytes.clone(),
            [header.as_slice(), &bytes].concat(),
            [header.as_slice(), &framed(&bytes, None)].concat(),
            [header.as_slice(), &framed(&bytes, Some(job_digest))].concat(),
        ] {
            if let Ok((completed, valid_len)) = parse_bytes(&input, &jobs) {
                prop_assert!(valid_len as usize <= input.len());
                prop_assert!(completed.len() <= jobs.len());
            }
        }

        let mut sealed = ByteWriter::new();
        sealed.put_raw(b"OSMFCKP1");
        sealed.put_u32(1);
        sealed.put_u64(job_digest);
        sealed.put_raw(&bytes);
        for input in [bytes.clone(), sealed.into_sealed_bytes(fnv)] {
            if let Some(ckpt) = checkpoint::decode(&input, job_digest) {
                prop_assert!(ckpt.machine.len() < input.len());
            }
        }
    }
}
