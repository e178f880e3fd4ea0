//! Append-only, checksummed JSONL journal: the one crash-recovery log
//! under both the daemon's result cache and the coordinator's sweep
//! journal.
//!
//! Every line is `{"crc":C,"<field>":R}\n`, where `R` is one serialized
//! [`Record`], `<field>` is that record type's [`Record::FIELD`]
//! (`"entry"` for cache entries, `"record"` for sweep records), and `C`
//! is the FNV-1a 64 hash of `R`'s bytes as they sit in the line. Each
//! append is written and flushed whole, so a `SIGKILL` costs at most the
//! line being written. Replay checks `C` against those bytes before it
//! deserializes them, so a record written by a build whose payload type
//! had a field more or less still replays.
//!
//! Replay reads records in file order and stops at the **first** line
//! that is unterminated, not UTF-8, not JSON, or fails its checksum:
//! that line and everything after it are the torn tail. [`Journal::open`]
//! cuts the tail off the file before reopening it for appends, so a
//! half-written record can never poison the records durable before it;
//! [`Journal::read`] reports the same prefix without touching the file.

use backfill_sim::canon::fnv1a_64;
use obs::metrics::Counter;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A payload type a [`Journal`] carries.
pub trait Record: Serialize + Deserialize {
    /// The envelope key the payload sits under, beside `crc`.
    const FIELD: &'static str;
}

/// The good prefix of a journal file.
#[derive(Debug)]
pub struct Replay<R> {
    /// Every record before the first torn line, in file order.
    pub records: Vec<R>,
    /// Bytes in the torn tail (0 for a clean file).
    pub dropped_bytes: u64,
}

/// An open journal: appends are durable per record.
#[derive(Debug)]
pub struct Journal<R> {
    path: PathBuf,
    file: Mutex<File>,
    appends: Arc<Counter>,
    record: PhantomData<fn(&R)>,
}

impl<R: Record> Journal<R> {
    /// Start an empty journal at `path`, truncating anything there.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::over(path, file))
    }

    /// The good prefix of the journal at `path` (empty when the file is
    /// absent). Writes nothing.
    pub fn read(path: &Path) -> io::Result<Replay<R>> {
        scan(path).map(|(replay, _)| replay)
    }

    /// Replay the journal at `path` through `replay`, then cut its torn
    /// tail and hold the file open for appends (creating it when
    /// absent). When `replay` fails, the file is left untouched.
    pub fn open<T, E: From<io::Error>>(
        path: &Path,
        replay: impl FnOnce(Replay<R>) -> Result<T, E>,
    ) -> Result<(Self, T), E> {
        let (records, good_len) = scan(path)?;
        let replayed = replay(records)?;
        // Append mode writes at the end of file, wherever set_len put it.
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        file.set_len(good_len)?;
        Ok((Self::over(path, file), replayed))
    }

    fn over(path: &Path, file: File) -> Self {
        Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            appends: Arc::new(Counter::new()),
            record: PhantomData,
        }
    }

    /// Checksum, write and flush one record as a single line.
    pub fn append(&self, record: &R) -> io::Result<()> {
        let body = serde_json::to_string(record).expect("journal records always serialize");
        let crc = fnv1a_64(body.as_bytes());
        let line = format!("{{\"crc\":{crc},\"{}\":{body}}}\n", R::FIELD);
        let mut file = self.file.lock();
        file.write_all(line.as_bytes())?;
        file.flush()?;
        self.appends.inc();
        Ok(())
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended since create/open (replayed ones excluded).
    pub fn appends(&self) -> &Arc<Counter> {
        &self.appends
    }
}

/// The record a line carries, or `None` when the line is torn. The
/// payload is taken exactly as [`Journal::append`] wrote it, between
/// `{"crc":C,"<field>":` and the closing `}`, and must hash to `C`.
fn parse<R: Record>(line: &[u8]) -> Option<R> {
    let text = std::str::from_utf8(line).ok()?;
    let (crc, rest) = text.strip_prefix("{\"crc\":")?.split_once(',')?;
    let body = rest
        .strip_prefix('"')?
        .strip_prefix(R::FIELD)?
        .strip_prefix("\":")?
        .strip_suffix('}')?;
    if crc.parse::<u64>().ok()? != fnv1a_64(body.as_bytes()) {
        return None;
    }
    serde_json::from_str(body).ok()
}

/// The good prefix of `path` and its length in bytes.
fn scan<R: Record>(path: &Path) -> io::Result<(Replay<R>, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(err) => return Err(err),
    };
    let mut records = Vec::new();
    let mut good_len = 0;
    // A record counts only once its newline is on disk.
    while let Some(newline) = bytes[good_len..].iter().position(|&b| b == b'\n') {
        let Some(record) = parse(&bytes[good_len..good_len + newline]) else {
            break;
        };
        records.push(record);
        good_len += newline + 1;
    }
    let replay = Replay {
        records,
        dropped_bytes: (bytes.len() - good_len) as u64,
    };
    Ok((replay, good_len as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Note {
        n: u64,
    }

    impl Record for Note {
        const FIELD: &'static str = "note";
    }

    /// `Note` as an older build wrote it, with one field more.
    #[derive(Debug, Serialize, Deserialize)]
    struct OldNote {
        n: u64,
        old: u64,
    }

    impl Record for OldNote {
        const FIELD: &'static str = "note";
    }

    /// The checksum covers the bytes on disk, not a re-serialization:
    /// a line whose payload type has since lost a field replays, and a
    /// flipped payload byte is still torn.
    #[test]
    fn a_line_an_older_payload_type_wrote_replays() {
        let path = std::env::temp_dir().join(format!(
            "bfsim-journal-unit-{}-old-field.jsonl",
            std::process::id()
        ));
        Journal::create(&path)
            .unwrap()
            .append(&OldNote { n: 1, old: 7 })
            .unwrap();
        let replay = Journal::<Note>::read(&path).unwrap();
        assert_eq!(replay.records, [Note { n: 1 }]);
        assert_eq!(replay.dropped_bytes, 0);

        let line = std::fs::read_to_string(&path).unwrap();
        let flipped = line.replace("\"n\":1", "\"n\":3");
        assert_ne!(flipped, line);
        std::fs::write(&path, &flipped).unwrap();
        let replay = Journal::<Note>::read(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.dropped_bytes, flipped.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    /// A replay that refuses the journal leaves the file as it found
    /// it — torn tail included — and one that accepts it cuts the tail.
    #[test]
    fn only_an_accepted_replay_cuts_the_torn_tail() {
        let path = std::env::temp_dir().join(format!(
            "bfsim-journal-unit-{}-refused.jsonl",
            std::process::id()
        ));
        Journal::create(&path)
            .unwrap()
            .append(&Note { n: 1 })
            .unwrap();
        let good = std::fs::read(&path).unwrap();
        let mut torn = good.clone();
        torn.extend_from_slice(b"{\"crc\":1,");
        std::fs::write(&path, &torn).unwrap();

        let refused = Journal::<Note>::open(&path, |_| -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::InvalidData, "refused"))
        });
        assert!(refused.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), torn, "nothing is cut");

        let (_, replay) = Journal::<Note>::open(&path, Ok::<_, io::Error>).unwrap();
        assert_eq!((replay.records.len(), replay.dropped_bytes), (1, 9));
        assert_eq!(std::fs::read(&path).unwrap(), good, "the tail is cut");
        let _ = std::fs::remove_file(&path);
    }
}
