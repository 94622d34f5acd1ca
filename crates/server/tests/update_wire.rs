//! Wire-level regressions for updates that would poison a shard:
//! `UPDATE CONNECT` of an already-linked pair and `UPDATE SERVICE` with an
//! atomic service the mapper cannot map. The live update path rejects
//! each with a distinct error before journaling — epoch, journal bytes
//! and cache stay untouched — while journal replay still restores a
//! journal that contains such a command.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
use upsim_server::{persist, serve, Engine, EngineConfig, ModelSnapshot};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        response.trim_end().to_string()
    }
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("upsim-update-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn fresh_snapshot() -> ModelSnapshot {
    ModelSnapshot::new(usi_infrastructure(), printing_service()).expect("USI models are consistent")
}

/// Drops the per-request timing token so two replies of the same cached
/// result compare byte for byte.
fn without_micros(reply: &str) -> String {
    reply
        .split(' ')
        .filter(|token| !token.starts_with("micros="))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn duplicate_connect_is_rejected_before_the_journal() {
    let dir = state_dir("duplicate");
    let config = EngineConfig {
        workers: 2,
        mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
        ..EngineConfig::default()
    };
    let engine = Engine::new(fresh_snapshot(), config);
    engine
        .enable_persistence(&dir, 0)
        .expect("enable persistence");
    let server = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    assert!(client.request("QUERY t1 p1").contains(" source=miss "));
    let cached = client.request("QUERY t1 p1");
    assert!(cached.contains(" source=hit epoch=0 "), "{cached}");
    let models = client.request("MODELS");
    let journal = persist::journal_path(&dir);
    let journal_bytes = std::fs::read(&journal).unwrap_or_default();

    // c1—c2 is a USI core link: connecting it again, in either order,
    // is refused with its own error and changes nothing.
    assert_eq!(
        client.request("UPDATE CONNECT c1 c2"),
        "ERR already connected `c1` `c2`"
    );
    assert_eq!(
        client.request("UPDATE CONNECT c2 c1"),
        "ERR already connected `c2` `c1`"
    );
    assert_eq!(
        client.request("MODELS"),
        models,
        "epoch and cache untouched"
    );
    assert_eq!(
        std::fs::read(&journal).unwrap_or_default(),
        journal_bytes,
        "nothing journaled"
    );
    assert_eq!(
        without_micros(&client.request("QUERY t1 p1")),
        without_micros(&cached),
        "the cached perspective survives"
    );

    // Removing the link makes the same CONNECT legal again.
    assert!(client
        .request("UPDATE DISCONNECT c1 c2")
        .starts_with("OK update kind=disconnect epoch=1 "));
    assert!(client
        .request("UPDATE CONNECT c1 c2")
        .starts_with("OK update kind=connect epoch=2 "));
    assert_eq!(
        client.request("UPDATE CONNECT c1 c2"),
        "ERR already connected `c1` `c2`"
    );
    let entries = persist::read_journal(&journal).expect("journal valid");
    assert_eq!(entries.len(), 2, "only the two applied updates journaled");

    client.request("SHUTDOWN");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_replay_still_restores_a_duplicate_connect() {
    let dir = state_dir("legacy");
    std::fs::write(persist::journal_path(&dir), "1 CONNECT c1 c2\n").expect("write legacy journal");
    let links = usi_infrastructure().link_count();
    let report = persist::restore(&dir, fresh_snapshot()).expect("legacy journal restores");
    assert_eq!((report.replayed, report.snapshot.epoch), (1, 1));
    assert_eq!(
        report.snapshot.infrastructure.link_count(),
        links + 1,
        "replay keeps the parallel edge the journal recorded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unmapped_service_is_rejected_before_the_journal() {
    let dir = state_dir("unmapped");
    let config = EngineConfig {
        workers: 2,
        mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
        ..EngineConfig::default()
    };
    let engine = Engine::new(fresh_snapshot(), config);
    engine
        .enable_persistence(&dir, 0)
        .expect("enable persistence");
    let server = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr());

    assert!(client.request("QUERY t1 p1").contains(" source=miss "));
    let cached = client.request("QUERY t1 p1");
    assert!(cached.contains(" source=hit epoch=0 "), "{cached}");
    let models = client.request("MODELS");
    let journal = persist::journal_path(&dir);
    let journal_bytes = std::fs::read(&journal).unwrap_or_default();

    // The USI mapper only maps the printing atomics: a service built from
    // other atomics is refused with its own error and changes nothing.
    assert_eq!(
        client.request("UPDATE SERVICE scanS a1 a2"),
        "ERR unmapped atomic service `a1`"
    );
    assert_eq!(
        client.request("MODELS"),
        models,
        "epoch and cache untouched"
    );
    assert_eq!(
        std::fs::read(&journal).unwrap_or_default(),
        journal_bytes,
        "nothing journaled"
    );
    assert_eq!(
        without_micros(&client.request("QUERY t1 p1")),
        without_micros(&cached),
        "the cached perspective survives"
    );
    let fresh = client.request("QUERY t2 p1");
    assert!(
        fresh.starts_with("OK ") && fresh.contains(" source=miss epoch=0 "),
        "later queries still evaluate: {fresh}"
    );

    client.request("SHUTDOWN");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_replay_still_restores_an_unmapped_service() {
    let dir = state_dir("legacy-service");
    std::fs::write(persist::journal_path(&dir), "1 SERVICE scanS a1 a2\n")
        .expect("write legacy journal");
    let report = persist::restore(&dir, fresh_snapshot()).expect("legacy journal restores");
    assert_eq!((report.replayed, report.snapshot.epoch), (1, 1));
    assert_eq!(report.snapshot.service_name(), "scanS");
    let _ = std::fs::remove_dir_all(&dir);
}
