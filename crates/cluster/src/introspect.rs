//! Per-node introspection plane: a tiny line-protocol TCP endpoint.
//!
//! Every [`ControllerNode`](crate::ControllerNode) launched by a
//! [`Cluster`](crate::Cluster) gets one [`IntrospectServer`] bound to
//! an ephemeral loopback port. The protocol is one command per
//! connection — the client writes a single line, the server writes its
//! answer and closes:
//!
//! * `health` — one flat-JSON line with the node's live counters
//!   (chain height, epoch, blocks appended, proposals made, WAL
//!   records/bytes/fsyncs and the blocks replayed from it at boot), the
//!   sizes of what grows with rounds served — `resident_blocks` of the
//!   chain store and `round_ctxs` of the node (the `chain.*` /
//!   `node.*` gauges of `metrics`) — and `stale_txs`, the queued
//!   transactions the final leader left out of a block because the
//!   chain would reject them (0 on a healthy run). Replay protection
//!   is one fixed-size window per switch, so it has no size to report.
//! * `metrics` — one flat-JSON line: the node's metric [`Registry`]
//!   rendered by [`Registry::to_json`] (counters, gauges, histogram
//!   `p50`/`p99` summaries), prefixed with the node's name.
//! * `flight` — the process flight recorder's current contents as
//!   JSONL (events and recent spans, oldest first); empty output when
//!   no recorder is installed.
//!
//! Answers are plain text over TCP so `nc 127.0.0.1 <port>` works as a
//! debugger; [`query`] is the programmatic client.

use crate::node::NodeProbe;
use curb_telemetry::{flight_recorder, Registry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Everything one node's introspection endpoint can report on.
#[derive(Clone)]
pub struct IntrospectState {
    /// The node's name, as it appears in distributed traces
    /// (`ctrl<id>`).
    pub node: String,
    /// The node's metric registry (shared with its consensus runners).
    pub registry: Registry,
    /// The node's live protocol counters.
    pub probe: Arc<NodeProbe>,
}

/// A running introspection endpoint. Dropping (or [`join`ing]) the
/// handle stops the acceptor thread.
///
/// [`join`ing]: IntrospectServer::join
pub struct IntrospectServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl IntrospectServer {
    /// Binds an ephemeral loopback listener and serves `state` on it.
    ///
    /// # Panics
    ///
    /// Panics if the listener cannot be bound or the acceptor thread
    /// cannot spawn — both indicate a broken test environment.
    pub fn spawn(state: IntrospectState) -> IntrospectServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind introspect listener");
        let addr = listener.local_addr().expect("introspect addr");
        listener
            .set_nonblocking(true)
            .expect("introspect listener nonblocking");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = thread::Builder::new()
            .name(format!("curb-introspect-{}", state.node))
            .spawn(move || accept_loop(listener, state, flag))
            .expect("spawn introspect server");
        IntrospectServer {
            addr,
            shutdown,
            thread: Some(thread),
        }
    }

    /// The endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and waits for it to exit.
    pub fn join(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for IntrospectServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, state: IntrospectState, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_one(stream, &state),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Serves exactly one command on `stream`, then closes it. Failures
/// drop the connection — the endpoint is diagnostic, never load-bearing.
fn serve_one(stream: TcpStream, state: &IntrospectState) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let mut stream = stream;
    let answer = respond(line.trim(), state);
    let _ = stream.write_all(answer.as_bytes());
    let _ = stream.flush();
}

fn respond(command: &str, state: &IntrospectState) -> String {
    match command {
        "health" => {
            let gauge = |name| state.registry.gauge(name).get();
            format!(
                "{{\"node\":\"{}\",\"height\":{},\"epoch\":{},\"blocks\":{},\"proposed\":{},\
                 \"wal_records\":{},\"wal_bytes\":{},\"wal_fsyncs\":{},\"restored\":{},\
                 \"resident_blocks\":{},\"round_ctxs\":{},\"stale_txs\":{}}}\n",
                state.node,
                state.probe.height.load(Ordering::Relaxed),
                state.probe.epoch.load(Ordering::Relaxed),
                state.probe.blocks.load(Ordering::Relaxed),
                state.probe.proposed.load(Ordering::Relaxed),
                state.probe.wal_records.load(Ordering::Relaxed),
                state.probe.wal_bytes.load(Ordering::Relaxed),
                state.probe.wal_fsyncs.load(Ordering::Relaxed),
                state.probe.restored.load(Ordering::Relaxed),
                gauge("chain.resident_blocks"),
                gauge("node.round_ctxs"),
                state.registry.counter("node.stale_txs").get(),
            )
        }
        "metrics" => {
            // Splice the node name into the registry's flat object so
            // one scrape line is self-identifying.
            let body = state.registry.to_json();
            let rest = body.strip_prefix('{').unwrap_or(&body);
            let sep = if rest.starts_with('}') { "" } else { "," };
            format!("{{\"node\":\"{}\"{sep}{rest}\n", state.node)
        }
        "flight" => match flight_recorder() {
            Some(rec) => rec.to_jsonl(),
            None => String::new(),
        },
        other => format!("{{\"error\":\"unknown command {:?}\"}}\n", other),
    }
}

/// Sends one `command` to the endpoint at `addr` and returns the full
/// response.
///
/// # Errors
///
/// Propagates connect/read/write failures.
pub fn query(addr: SocketAddr, command: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(command.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_telemetry::json::{parse_flat_object, JsonValue};

    fn test_state() -> IntrospectState {
        let registry = Registry::new();
        registry.counter("runner.commits").add(7);
        registry.gauge("net.queue_depth").add(3);
        registry.gauge("node.round_ctxs").set(40);
        registry.counter("node.stale_txs").add(2);
        let probe = Arc::new(NodeProbe::default());
        probe.height.store(12, Ordering::Relaxed);
        probe.epoch.store(2, Ordering::Relaxed);
        probe.wal_records.store(12, Ordering::Relaxed);
        probe.wal_fsyncs.store(3, Ordering::Relaxed);
        IntrospectState {
            node: "ctrl0".to_string(),
            registry,
            probe,
        }
    }

    #[test]
    fn health_is_flat_json() {
        let state = test_state();
        let line = respond("health", &state);
        let obj = parse_flat_object(line.trim()).expect("flat json");
        assert_eq!(
            obj.get("node"),
            Some(&JsonValue::String("ctrl0".to_string()))
        );
        assert_eq!(obj.get("height"), Some(&JsonValue::Number(12.0)));
        assert_eq!(obj.get("epoch"), Some(&JsonValue::Number(2.0)));
        assert_eq!(obj.get("wal_records"), Some(&JsonValue::Number(12.0)));
        assert_eq!(obj.get("wal_fsyncs"), Some(&JsonValue::Number(3.0)));
        assert_eq!(obj.get("restored"), Some(&JsonValue::Number(0.0)));
        assert_eq!(obj.get("round_ctxs"), Some(&JsonValue::Number(40.0)));
        assert_eq!(obj.get("stale_txs"), Some(&JsonValue::Number(2.0)));
        assert_eq!(obj.get("resident_blocks"), Some(&JsonValue::Number(0.0)));
    }

    #[test]
    fn metrics_carry_the_node_name_and_registry() {
        let state = test_state();
        let line = respond("metrics", &state);
        let obj = parse_flat_object(line.trim()).expect("flat json");
        assert_eq!(
            obj.get("node"),
            Some(&JsonValue::String("ctrl0".to_string()))
        );
        assert_eq!(obj.get("runner.commits"), Some(&JsonValue::Number(7.0)));
        assert_eq!(obj.get("net.queue_depth"), Some(&JsonValue::Number(3.0)));
    }

    #[test]
    fn metrics_with_empty_registry_still_parse() {
        let state = IntrospectState {
            node: "ctrl9".to_string(),
            registry: Registry::new(),
            probe: Arc::new(NodeProbe::default()),
        };
        let line = respond("metrics", &state);
        let obj = parse_flat_object(line.trim()).expect("flat json");
        assert_eq!(
            obj.get("node"),
            Some(&JsonValue::String("ctrl9".to_string()))
        );
    }

    #[test]
    fn unknown_commands_answer_with_an_error() {
        let state = test_state();
        let line = respond("bogus", &state);
        assert!(line.contains("unknown command"));
    }

    #[test]
    fn end_to_end_over_tcp() {
        let server = IntrospectServer::spawn(test_state());
        let health = query(server.addr(), "health").expect("query health");
        assert!(health.contains("\"height\":12"));
        let metrics = query(server.addr(), "metrics").expect("query metrics");
        assert!(metrics.contains("runner.commits"));
        server.join();
    }
}
