//! Chunk-level timing around a packet source.

use mawilab_model::{PacketChunk, PacketSource, SourceError, TraceMeta};
use std::time::Instant;

/// What [`ClockedSource`] measured over one drain.
#[derive(Debug, Default)]
pub struct ChunkClock {
    /// Per chunk: seconds between handing the chunk to the pipeline
    /// and the pipeline asking for the next one — its ingest cost.
    pub chunk_s: Vec<f64>,
    /// Packets handed out.
    pub packets: u64,
    /// When the source reported end of stream.
    pub end_of_stream: Option<Instant>,
    handed_out: Option<Instant>,
}

/// Passes a source through unchanged while timing how long the
/// pipeline holds each chunk.
pub struct ClockedSource<S> {
    inner: S,
    clock: ChunkClock,
}

impl<S: PacketSource> ClockedSource<S> {
    pub fn new(inner: S) -> Self {
        ClockedSource {
            inner,
            clock: ChunkClock::default(),
        }
    }

    pub fn into_parts(self) -> (S, ChunkClock) {
        (self.inner, self.clock)
    }
}

impl<S: PacketSource> PacketSource for ClockedSource<S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn bin_us(&self) -> u64 {
        self.inner.bin_us()
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        let asked = Instant::now();
        if let Some(handed) = self.clock.handed_out.take() {
            self.clock.chunk_s.push((asked - handed).as_secs_f64());
        }
        let next = self.inner.next_chunk()?;
        let now = Instant::now();
        match next {
            Some(chunk) => {
                self.clock.packets += chunk.packets.len() as u64;
                self.clock.handed_out = Some(now);
                Ok(Some(chunk))
            }
            None => {
                self.clock.end_of_stream = Some(now);
                Ok(None)
            }
        }
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.clock = ChunkClock::default();
        self.inner.rewind()
    }
}
