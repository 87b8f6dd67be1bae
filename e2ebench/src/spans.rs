//! Host-time spans recorded by the benchmark around its calls into the
//! library, kept in memory and written once as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto) when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One complete span. Times are ns since the benchmark's epoch.
struct Rec {
    id: u64,
    parent: u64,
    name: String,
    cat: &'static str,
    start: u64,
    dur: u64,
}

/// In-memory span list. Id 0 means "no parent".
#[derive(Default)]
pub struct Spans {
    recs: Vec<Rec>,
}

impl Spans {
    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &str,
        cat: &'static str,
        start: u64,
        dur: u64,
    ) -> u64 {
        let id = self.recs.len() as u64 + 1;
        self.recs.push(Rec {
            id,
            parent,
            name: name.to_owned(),
            cat,
            start,
            dur,
        });
        id
    }

    /// Sets the duration of span `id`, recorded before its children.
    pub fn set_dur(&mut self, id: u64, dur: u64) {
        self.recs[(id - 1) as usize].dur = dur;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Writes every span as a `"ph": "X"` complete event with its id
    /// and parent id in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, r) in self.recs.iter().enumerate() {
            let name = r.name.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(
                s,
                "{}{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                r.cat,
                r.start as f64 / 1e3,
                r.dur as f64 / 1e3,
                r.id,
                r.parent
            );
        }
        s.push_str("\n]}\n");
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(s.as_bytes())?;
        f.flush()
    }
}
