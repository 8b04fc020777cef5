"""Local fake chat-completions server with a fixed injected delay.

Run as a script, it serves POST /v1/chat/completions on 127.0.0.1, prints
"PORT <n>" on its first stdout line, and exits when its stdin closes, so it
never outlives the benchmark that started it. POST /v1/reset forgets how
often each question was seen. Requests for the model "ping" skip the delay;
the benchmark uses them to measure the bare round trip.

The answer to a prompt depends only on its last "Question:" line and on how
many times the server has seen that question since the last reset, never on
the context, so a change to context building or prompt fitting cannot change
the answers or how many IRCoT steps a run takes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _hash(question: str) -> int:
    return int.from_bytes(hashlib.sha256(question.encode()).digest()[:8], "big")


def exit_step(question: str) -> int:
    """The IRCoT step, 1 to 4, at which the answer to `question` is final."""
    return 1 + _hash(question) % 4


def answer_word(question: str) -> str:
    h = _hash(question) >> 2
    parts = []
    for _ in range(3):
        h, i = divmod(h, len(_SYLLABLES))
        parts.append(_SYLLABLES[i])
    return "".join(parts)


def answer(question: str, count: int) -> str:
    """The reply to the `count`-th (1-based) sighting of `question`: final on
    every exit_step-th sighting, an intermediate reasoning step otherwise."""
    word = answer_word(question)
    if count % exit_step(question) == 0:
        return f"So the answer is {word}."
    # naming a question term steers the next IRCoT retrieval elsewhere
    terms = question.split() or [word]
    return f"Step {count}: {terms[(count - 1) % len(terms)]} points to {word}."


def question_of(prompt: str) -> str:
    question = ""
    for line in prompt.splitlines():
        if line.startswith("Question:"):
            question = line[len("Question:"):].strip()
    return question


class FakeLLM:
    """Per-question sighting counts shared by the handler threads."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.seen: dict[str, int] = {}

    def reply(self, body: dict) -> str:
        prompt = body["messages"][-1]["content"]
        if body.get("model") == "ping":
            return "pong"
        question = question_of(prompt)
        with self.lock:
            count = self.seen.get(question, 0) + 1
            self.seen[question] = count
        time.sleep(self.delay_s)
        return answer(question, count)

    def reset(self) -> None:
        with self.lock:
            self.seen.clear()


def make_server(llm: FakeLLM) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in separate writes; with Nagle on, the
        # body waits for the client's delayed ACK, about 40 ms per call
        disable_nagle_algorithm = True

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            if self.path.endswith("/reset"):
                llm.reset()
                payload = {"reset": True}
            else:
                content = llm.reply(body)
                payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
            data = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    server = make_server(FakeLLM(args.delay_ms / 1000.0))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
