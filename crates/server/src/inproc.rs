//! An in-process client over the handler layer: the same
//! request/response surface as [`crate::client::ProbeClient`], minus the
//! socket.
//!
//! The transport-agnostic split ([`Connection::handle`] returns an
//! [`Interaction`], never touches I/O) means a client can drive the real
//! serving stack — session lifecycle, watch registries, WAL appends,
//! registry eviction — as a plain method call. With no socket and no
//! pusher thread, a serial caller sees every frame in a fixed order,
//! which is what lets the load harness gate its counters exactly.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::handler::{Connection, Interaction, ProbeService};
use crate::protocol::{Request, Response};

/// A connection-level client: one [`Connection`] (one session slot, its
/// own watch table) plus a buffer of pushed event frames, mirroring how
/// [`crate::client::ProbeClient`] separates replies from events.
pub struct InProcClient {
    conn: Connection,
    events: VecDeque<Response>,
}

impl InProcClient {
    /// Opens a connection on `service`. Cheap: no thread, no socket.
    pub fn new(service: Arc<ProbeService>) -> Self {
        InProcClient {
            conn: Connection::new(service),
            events: VecDeque::new(),
        }
    }

    /// Dispatches one request through the handler and returns its direct
    /// response; any event frames it produced (watch registration
    /// answers, own-ingest deltas) are buffered for
    /// [`poll_event`](Self::poll_event) / [`take_events`](Self::take_events).
    pub fn request(&mut self, request: Request) -> Response {
        let Interaction { response, events } = self.conn.handle(request);
        self.events.extend(events);
        response
    }

    /// Removes and returns the oldest buffered event frame, if any.
    pub fn poll_event(&mut self) -> Option<Response> {
        self.events.pop_front()
    }

    /// Removes and returns every buffered event frame, oldest first.
    pub fn take_events(&mut self) -> Vec<Response> {
        self.events.drain(..).collect()
    }

    /// Buffered event frames not yet consumed.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Drains watch deltas queued by *other* connections' ingests into
    /// this connection's event buffer (a TCP connection's pusher thread
    /// does this automatically; in-process callers poll). Returns how
    /// many frames arrived.
    pub fn pump_watch_frames(&mut self) -> usize {
        let frames = self.conn.drain_watch_frames();
        let n = frames.len();
        self.events.extend(frames);
        n
    }

    /// The underlying connection, for lifecycle calls the request enum
    /// does not cover.
    pub fn connection(&self) -> &Connection {
        &self.conn
    }

    /// Closes the session (dropping any watches); the client can attach
    /// again afterwards.
    pub fn close(&self) {
        self.conn.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PublishCfg;
    use plasma_data::datasets::gaussian::GaussianSpec;
    use plasma_data::similarity::Similarity;

    fn corpus(n: usize) -> Vec<plasma_data::vector::SparseVector> {
        GaussianSpec {
            separation: 3.5,
            spread: 0.7,
            ..GaussianSpec::new("inproc", n, 6, 2)
        }
        .generate(9)
        .records
    }

    #[test]
    fn inproc_client_round_trips_the_serving_stack() {
        let service = Arc::new(ProbeService::new());
        let mut client = InProcClient::new(service);
        let all = corpus(30);
        let fp = match client.request(Request::Publish {
            name: "t".into(),
            measure: Similarity::Cosine,
            records: all[..24].to_vec(),
            cfg: PublishCfg::default(),
        }) {
            Response::Published { fingerprint, .. } => fingerprint,
            other => panic!("publish failed: {other:?}"),
        };
        assert!(matches!(
            client.request(Request::Attach {
                fingerprint: fp,
                pinned: false,
                declared_measure: None,
            }),
            Response::Attached { .. }
        ));
        assert!(matches!(
            client.request(Request::Watch { threshold: 0.7 }),
            Response::WatchAck { .. }
        ));
        // Registration pushes the full first delta as an event frame.
        assert_eq!(client.pending_events(), 1);
        let ingested = client.request(Request::Ingest {
            records: all[24..].to_vec(),
        });
        assert!(matches!(
            ingested,
            Response::Ingested {
                records_added: 6,
                ..
            }
        ));
        // The own-ingest delta rides behind the receipt.
        assert_eq!(client.pending_events(), 2);
        assert!(client
            .take_events()
            .iter()
            .all(|e| matches!(e, Response::WatchDeltaEvent { .. })));
        assert!(matches!(
            client.request(Request::Probe { threshold: 0.7 }),
            Response::ProbeResult { .. }
        ));
        assert!(matches!(
            client.request(Request::Detach),
            Response::Detached
        ));
    }
}
