//! Deeply nested sources reach the frontend on the worker pool: the
//! daemon answers them with typed replies and keeps serving, instead of
//! overflowing a worker's stack and aborting the process.

use ent_serve::{Reply, Server, ServerConfig, Submission};

const DEPTH: usize = 5000;

fn nested_program(depth: usize) -> String {
    format!(
        "class Main {{ int main() {{ return {}1{}; }} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

fn line(op: &str, id: &str, src: &str) -> String {
    format!(
        "{{\"op\": \"{op}\", \"id\": \"{id}\", \"src\": \"{}\"}}",
        ent_runtime::json_escape(src)
    )
}

fn reply(server: &Server, line: &str) -> Reply {
    match server.handle_line(line, 0) {
        Submission::Immediate(r) => r,
        Submission::Queued(rx) => rx.recv().expect("worker replies"),
    }
}

#[test]
fn paren_depth_5000_gets_ok_replies_and_the_server_stays_up() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let src = nested_program(DEPTH);
    for (op, expected) in [("check", "ok: 1 classes"), ("run", "result: 1")] {
        match reply(&server, &line(op, op, &src)) {
            Reply::Done { code, output, .. } => {
                assert_eq!(code, 0, "{op}: {output}");
                assert!(output.contains(expected), "{op}: {output}");
            }
            other => panic!("{op}: expected an ok reply, got {other:?}"),
        }
    }
    match reply(&server, "{\"op\": \"health\"}") {
        Reply::Doc { payload, .. } => assert!(payload.contains("\"ok\": true"), "{payload}"),
        other => panic!("expected a health doc, got {other:?}"),
    }
    server.shutdown();
}
