"""HTTP backend tests against a local fake chat-completions server."""

import gc
import json
import math
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from ragkit.errors import BackendError, InvalidK, PipelineError
from ragkit.eval import experiment
from ragkit.frame import Frame, SemType
from ragkit.index import BM25Retriever, index_corpus
from ragkit.rag import MAX_RETRY_AFTER, Concatenator, HttpBackend, ircot, reader, zero_shot
from ragkit.transformer import run


def content(text):
    return {"choices": [{"message": {"content": text}}]}


def prompt_of(body):
    return body["messages"][1]["content"]


class FakeLLMServer:
    """Records every request and replays a scripted list of responses.

    Each scripted item is (status, payload) or (status, payload, headers),
    headers being a dict sent with the reply; the last item repeats forever.
    A status of None drops the connection without a reply. Setting `reply`
    to a function of (arrival index, request body) returning such an item
    replaces the script. `max_in_flight` is the most requests ever handled
    at once.
    """

    def __init__(self):
        self.requests = []
        self.responses = [(200, content("stub"))]
        self.reply = None
        self.lock = threading.Lock()
        self.in_flight = self.max_in_flight = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                body = json.loads(body) if body else None
                with outer.lock:
                    outer.requests.append({
                        "path": self.path,
                        "headers": {k.lower(): v for k, v in self.headers.items()},
                        "body": body,
                    })
                    arrival = len(outer.requests) - 1
                    outer.in_flight += 1
                    outer.max_in_flight = max(outer.max_in_flight, outer.in_flight)
                try:
                    status, payload, *headers = (
                        outer.reply(arrival, body) if outer.reply
                        else outer.responses[min(arrival, len(outer.responses) - 1)])
                finally:
                    with outer.lock:
                        outer.in_flight -= 1
                if status is None:
                    self.close_connection = True
                    return
                data = (payload if isinstance(payload, str)
                        else json.dumps(payload)).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (headers[0] if headers else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=lambda: self.httpd.serve_forever(poll_interval=0.02), daemon=True)

    @property
    def base_url(self):
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1"

    def set_responses(self, *items):
        self.requests.clear()
        self.responses = list(items)


@pytest.fixture
def server():
    s = FakeLLMServer()
    s.thread.start()
    yield s
    s.httpd.shutdown()
    s.httpd.server_close()


def make_backend(server, **kwargs):
    kwargs.setdefault("retry_base_delay", 0.25)
    kwargs.setdefault("sleeper", lambda d: None)
    return HttpBackend("test-model", base_url=server.base_url, **kwargs)


def test_request_shape(server, monkeypatch):
    monkeypatch.delenv("RAGKIT_API_KEY", raising=False)
    server.set_responses((200, content("  Paris  ")))
    out = make_backend(server).generate(["the prompt"], system="be brief")
    assert out == ["  Paris  "]

    req = server.requests[0]
    assert req["path"] == "/v1/chat/completions"
    assert req["headers"]["content-type"] == "application/json"
    assert "authorization" not in req["headers"]
    assert req["body"] == {
        "model": "test-model",
        "messages": [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": "the prompt"},
        ],
        "temperature": 0.0,
    }


def test_api_key_sent_as_bearer_token(server, monkeypatch):
    monkeypatch.setenv("RAGKIT_API_KEY", "sk-sekret")
    make_backend(server).generate(["x"])
    assert server.requests[0]["headers"]["authorization"] == "Bearer sk-sekret"


def test_base_url_from_environment(server, monkeypatch):
    monkeypatch.setenv("RAGKIT_BASE_URL", server.base_url + "/")
    backend = HttpBackend("m", sleeper=lambda d: None)
    assert backend.generate(["x"]) == ["stub"]
    assert server.requests[0]["path"] == "/v1/chat/completions"


def test_temperature_and_model_are_configurable(server):
    make_backend(server, temperature=0.7).generate(["x"])
    body = server.requests[0]["body"]
    assert body["temperature"] == 0.7 and body["model"] == "test-model"


def test_one_request_per_prompt_in_order(server):
    # arrival order is only guaranteed when prompts are sent one at a time
    make_backend(server, concurrency=1).generate(["p1", "p2", "p3"])
    sent = [r["body"]["messages"][1]["content"] for r in server.requests]
    assert sent == ["p1", "p2", "p3"]


def test_retries_rate_limit_with_exponential_backoff(server):
    delays = []
    server.set_responses(
        (429, {"error": "slow down"}),
        (429, {"error": "slow down"}),
        (200, content("finally")),
    )
    backend = make_backend(server, sleeper=delays.append)
    assert backend.generate(["x"]) == ["finally"]
    assert len(server.requests) == 3
    assert delays == [0.25, 0.5]


def test_retries_server_errors(server):
    delays = []
    server.set_responses(
        (503, {"error": "overloaded"}),
        (200, content("ok")),
    )
    backend = make_backend(server, sleeper=delays.append)
    assert backend.generate(["x"]) == ["ok"]
    assert delays == [0.25]


def test_gives_up_after_max_retries(server):
    delays = []
    server.set_responses((429, {"error": "no"}))
    backend = make_backend(server, max_retries=3, sleeper=delays.append)
    with pytest.raises(BackendError) as err:
        backend.generate(["x"])
    assert err.value.status == 429
    assert len(server.requests) == 4  # initial try plus three retries
    assert delays == [0.25, 0.5, 1.0]


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("value, waited", [
    ("3", 3), (" 0 ", 0), ("100000", MAX_RETRY_AFTER),
    # an HTTP-date or a malformed value keeps the exponential backoff
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.25), ("-1", 0.25), ("1.5", 0.25),
    ("", 0.25), ("soon", 0.25), ("\u00b2", 0.25),
])
def test_retry_after_in_seconds_sets_the_wait(server, status, value, waited):
    delays = []
    server.set_responses((status, {"error": "later"}, {"Retry-After": value}),
                         (200, content("ok")))
    backend = make_backend(server, sleeper=delays.append)
    assert backend.generate(["x"]) == ["ok"]
    assert len(server.requests) == 2 and delays == [waited]


def test_retry_after_sets_only_its_own_attempts_wait(server):
    delays = []
    server.set_responses((429, {}, {"Retry-After": "7"}), (503, {}),
                         (429, {}, {"Retry-After": "2"}), (200, content("ok")))
    assert make_backend(server, sleeper=delays.append).generate(["x"]) == ["ok"]
    assert delays == [7, 0.5, 2]


def test_retry_after_on_a_client_error_is_not_a_retry(server):
    delays = []
    server.set_responses((400, {"error": "bad"}, {"Retry-After": "1"}))
    with pytest.raises(BackendError):
        make_backend(server, sleeper=delays.append).generate(["x"])
    assert len(server.requests) == 1 and delays == []


def test_http_500_is_retried_like_429(server):
    delays = []
    server.set_responses((500, {"error": "internal"}), (200, content("ok")))
    backend = make_backend(server, sleeper=delays.append)
    assert backend.generate(["x"]) == ["ok"]
    assert len(server.requests) == 2 and delays == [0.25]


def test_max_retries_zero_makes_one_attempt_and_never_sleeps(server):
    delays = []
    server.set_responses((429, {"error": "no"}), (200, content("too late")))
    backend = make_backend(server, max_retries=0, sleeper=delays.append)
    with pytest.raises(BackendError) as err:
        backend.generate(["x"])
    assert err.value.status == 429
    assert len(server.requests) == 1 and delays == []


def test_client_errors_fail_immediately(server):
    delays = []
    server.set_responses((400, {"error": "bad request"}))
    backend = make_backend(server, sleeper=delays.append)
    with pytest.raises(BackendError) as err:
        backend.generate(["x"])
    assert err.value.status == 400
    assert len(server.requests) == 1 and delays == []


def test_malformed_success_body(server):
    server.set_responses((200, {"unexpected": "shape"}))
    with pytest.raises(BackendError):
        make_backend(server).generate(["x"])
    server.set_responses((200, "not json at all"))
    with pytest.raises(BackendError):
        make_backend(server).generate(["x"])


@pytest.mark.parametrize("answer", [None, 5, ["Paris"]])
def test_a_content_that_is_not_a_str_is_malformed(server, answer):
    server.set_responses((200, content(answer)))
    with pytest.raises(BackendError, match="malformed backend response: content"):
        make_backend(server).generate(["x"])
    assert len(server.requests) == 1


def test_connection_failure(monkeypatch):
    monkeypatch.delenv("RAGKIT_BASE_URL", raising=False)
    backend = HttpBackend("m", base_url="http://127.0.0.1:9/v1",
                          timeout=0.5, sleeper=lambda d: None)
    with pytest.raises(BackendError):
        backend.generate(["x"])


def test_descriptor_names_the_model(server):
    assert make_backend(server).descriptor == "http:test-model"


# -- transport retries ---------------------------------------------------------


def test_retries_a_dropped_connection(server):
    delays = []
    server.set_responses((None, None), (200, content("again")))
    backend = make_backend(server, sleeper=delays.append)
    assert backend.generate(["x"]) == ["again"]
    assert len(server.requests) == 2 and delays == [0.25]


def test_retries_a_timeout(server):
    retried = threading.Event()

    def reply(arrival, body):
        # the first request is held until the retry arrives, so it can only
        # end by the client's timeout; the retry is answered at once
        if arrival == 0:
            retried.wait(5)
        else:
            retried.set()
        return 200, content("in time")

    delays = []
    server.reply = reply
    backend = make_backend(server, timeout=0.5, sleeper=delays.append)
    assert backend.generate(["x"]) == ["in time"]
    assert len(server.requests) == 2 and delays == [0.25]


class RaisingSession:
    def __init__(self, exc):
        self.exc, self.calls = exc, 0

    def post(self, *args, **kwargs):
        self.calls += 1
        raise self.exc


@pytest.mark.parametrize("exc, calls", [
    (requests.ConnectionError("reset"), 4),
    (requests.Timeout("slow"), 4),
    (ValueError("not transport"), 1),
])
def test_only_transport_errors_are_retried(exc, calls):
    delays, session = [], RaisingSession(exc)
    backend = HttpBackend("m", base_url="http://a", session=session,
                          max_retries=3, retry_base_delay=0.25, sleeper=delays.append)
    with pytest.raises(BackendError) as err:
        backend.generate(["x"])
    assert err.value.__cause__ is exc and err.value.status is None
    assert session.calls == calls
    assert delays == [0.25, 0.5, 1.0][: calls - 1]


@pytest.mark.parametrize("bad", [-1, 2.5, True, "3"])
def test_max_retries_must_be_an_int_of_at_least_zero(bad):
    with pytest.raises(ValueError, match="max_retries"):
        HttpBackend("m", base_url="http://a", session=object(), max_retries=bad)


def test_negative_retry_delay_is_refused_and_zero_is_not():
    with pytest.raises(ValueError, match="retry_base_delay must be >= 0, got -1"):
        HttpBackend("m", base_url="http://a", session=object(), retry_base_delay=-1)
    delays, session = [], RaisingSession(requests.ConnectionError("reset"))
    backend = HttpBackend("m", base_url="http://a", session=session,
                          max_retries=2, retry_base_delay=0, sleeper=delays.append)
    with pytest.raises(BackendError):
        backend.generate(["x"])
    assert session.calls == 3 and delays == [0, 0]


@pytest.mark.parametrize("bad", [0, -1, 0.0, math.nan, math.inf, True, "x", None])
def test_timeout_must_be_a_positive_finite_number(bad):
    with pytest.raises(ValueError, match="timeout must be"):
        HttpBackend("m", base_url="http://a", session=object(), timeout=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "x"])
def test_retry_delay_must_be_a_finite_number(bad):
    with pytest.raises(ValueError, match="retry_base_delay must be a finite number"):
        HttpBackend("m", base_url="http://a", session=object(), retry_base_delay=bad)


@pytest.mark.parametrize("bad, message", [
    (math.nan, "temperature must be a finite number"),
    (math.inf, "temperature must be a finite number"),
    ("hot", "temperature must be a finite number"),
    (True, "temperature must be a finite number"),
    (-1, "temperature must be >= 0, got -1"),
])
def test_temperature_must_be_a_finite_number_of_at_least_zero(bad, message):
    with pytest.raises(ValueError, match=message):
        HttpBackend("m", base_url="http://a", session=object(), temperature=bad)


# -- concurrency ---------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, -1, True, 2.0])
def test_concurrency_must_be_a_positive_int(bad):
    with pytest.raises(InvalidK, match="concurrency"):
        HttpBackend("m", base_url="http://a", session=object(), concurrency=bad)


def test_answers_stay_aligned_when_replies_finish_out_of_order(server):
    n, finished = 6, []
    all_arrived = threading.Barrier(n, timeout=5)

    def reply(arrival, body):
        all_arrived.wait()
        time.sleep(0.03 * (n - arrival))  # the first to arrive finishes last
        finished.append(prompt_of(body))
        return 200, content(prompt_of(body))

    server.reply = reply
    prompts = [f"p{i}" for i in range(n)]
    assert make_backend(server, concurrency=n).generate(prompts) == prompts
    arrived = [prompt_of(r["body"]) for r in server.requests]
    assert finished == arrived[::-1] != prompts


@pytest.mark.parametrize("concurrency", [1, 3, 8])
def test_requests_in_flight_never_exceed_concurrency(server, concurrency):
    def reply(arrival, body):
        time.sleep(0.03)
        return 200, content(prompt_of(body))

    server.reply = reply
    prompts = [f"p{i}" for i in range(12)]
    assert make_backend(server, concurrency=concurrency).generate(prompts) == prompts
    assert server.max_in_flight <= concurrency
    assert (server.max_in_flight > 1) == (concurrency > 1)


def test_default_concurrency_is_eight(server):
    assert make_backend(server).concurrency == 8


@pytest.mark.parametrize("failing", [0, 2, 5])
def test_earliest_failing_prompt_raises_its_own_error(server, failing):
    # prompt `failing` fails last; every later prompt fails at once
    def reply(arrival, body):
        i = int(prompt_of(body)[1:])
        if i == failing:
            time.sleep(0.2)
        return (200, content("ok")) if i < failing else (400 + i, {"error": i})

    server.reply = reply
    with pytest.raises(BackendError) as err:
        make_backend(server, concurrency=8).generate([f"p{i}" for i in range(8)])
    assert err.value.status == 400 + failing


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failure_stops_the_rest_of_the_batch(server, failing):
    # every other request is held, so the failure comes first even when an
    # earlier prompt is still in flight
    def reply(arrival, body):
        if prompt_of(body) == f"p{failing}":
            return 400, {"error": "bad"}
        time.sleep(0.2)
        return 200, content("ok")

    server.reply = reply
    with pytest.raises(BackendError) as err:
        make_backend(server, concurrency=2).generate([f"p{i}" for i in range(10)])
    assert err.value.status == 400
    assert len(server.requests) <= 2 + 1


def test_the_next_call_after_a_failure_sends_every_prompt(server):
    server.reply = lambda arrival, body: (
        (400, {"error": "bad"}) if arrival == 0 else (200, content(prompt_of(body))))
    backend = make_backend(server, concurrency=2)
    with pytest.raises(BackendError):
        backend.generate([f"p{i}" for i in range(6)])
    prompts = [f"q{i}" for i in range(6)]
    assert backend.generate(prompts) == prompts


class ThreadRecordingSession(requests.Session):
    def __init__(self):
        super().__init__()
        self.trust_env = False
        self.threads = []

    def post(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        return super().post(*args, **kwargs)


def test_calls_reuse_the_backends_threads(server):
    # the first three requests wait for each other, so all three threads send
    first_three = threading.Barrier(3, timeout=5)

    def reply(arrival, body):
        if arrival < 3:
            first_three.wait()
        return 200, content(prompt_of(body))

    server.reply = reply
    session = ThreadRecordingSession()
    backend = make_backend(server, session=session, concurrency=3)
    first = [f"p{i}" for i in range(6)]
    assert backend.generate(first) == first
    started = set(session.threads)
    assert len(started) == 3
    session.threads.clear()
    for n in (6, 2, 5):
        prompts = [f"q{i}" for i in range(n)]
        assert backend.generate(prompts) == prompts
    assert set(session.threads) <= started

    del backend
    gc.collect()
    for thread in started:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in started)


def test_one_prompt_goes_out_on_a_pool_thread(server):
    session = ThreadRecordingSession()
    backend = make_backend(server, session=session)
    assert backend.generate([]) == []
    assert session.threads == []
    assert backend.generate(["only"]) == ["stub"]
    [thread] = session.threads
    assert thread is not threading.current_thread()
    assert thread.name.startswith("ragkit-http")


def test_calls_from_several_threads_share_one_bound(server):
    def reply(arrival, body):
        time.sleep(0.03)
        return 200, content(prompt_of(body))

    server.reply = reply
    backend = make_backend(server, concurrency=3)
    answers = {}

    def call(name):
        prompts = [f"{name}{i}" for i in range(6)]
        answers[name] = backend.generate(prompts) == prompts

    callers = [threading.Thread(target=call, args=(name,)) for name in "ab"]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    assert answers == {"a": True, "b": True}
    assert 1 < server.max_in_flight <= 3


def test_own_session_pools_enough_connections():
    for concurrency, pool_size in [(1, 10), (8, 10), (32, 32)]:
        backend = HttpBackend("m", base_url="http://a", concurrency=concurrency)
        for url in ("http://a", "https://a"):
            adapter = backend.session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == pool_size


def test_supplied_session_is_used_as_given(server):
    session = requests.Session()
    session.trust_env = False
    backend = make_backend(server, session=session, concurrency=32)
    assert backend.session is session
    assert session.get_adapter("http://a").poolmanager.connection_pool_kw["maxsize"] == 10
    prompts = [f"p{i}" for i in range(12)]
    server.reply = lambda arrival, body: (200, content(prompt_of(body)))
    assert backend.generate(prompts) == prompts


# -- end to end ----------------------------------------------------------------


class SightingReplies:
    """Replies that depend on the question and on how often it was seen: the
    count-th sighting of a question is final on every exit-th count, where
    exit is 1 to 3 by a hash of the question, and a reasoning step
    otherwise. Parallel sending keeps the answers only if each question's
    sightings stay in the same order."""

    def __init__(self):
        self.lock = threading.Lock()
        self.seen = {}

    def __call__(self, arrival, body):
        question = prompt_of(body).rsplit("Question:", 1)[1].split("\n")[0].strip()
        with self.lock:
            count = self.seen[question] = self.seen.get(question, 0) + 1
        time.sleep(0.005)
        h = zlib.crc32(question.encode())
        word = f"w{h % 97}"
        if count % (1 + h % 3) == 0:
            return 200, content(f"So the answer is {word}.")
        return 200, content(f"Step {count}: {question.split()[count % 2]} points to {word}.")


def test_concurrency_changes_no_experiment_report_or_ircot_answer(server):
    index = index_corpus([
        {"docno": f"d{i}", "text": f"{a} {b} doc{i}"}
        for i, (a, b) in enumerate(zip("abcdefgh" * 2, "ijklmnop" * 2))
    ])
    topics = Frame(SemType.Q, [
        {"qid": f"q{i}", "query": f"{a} {b} {i}"}
        for i, (a, b) in enumerate(zip("abcdefgh", "ponmlkji"))
    ])
    gold = Frame(SemType.GA, [
        {"qid": r["qid"], "ganswer": [f"w{zlib.crc32(r['query'].encode()) % 97}"]}
        for r in topics.rows
    ])
    bm25 = BM25Retriever(index, include_fields=("text",))

    def backend(concurrency):
        server.reply = SightingReplies()
        return make_backend(server, concurrency=concurrency)

    reports = {}
    for concurrency in (1, 8):
        for share in (True, False):
            llm = backend(concurrency)
            systems = [("zero_shot", zero_shot(llm))] + [
                (f"rag_k{k}", bm25 % 5 >> Concatenator(k_docs=k) >> reader(llm))
                for k in (2, 4)
            ]
            report = experiment(systems, topics, gold, baseline="zero_shot",
                                correction="holm", share_prefix=share).to_dict()
            del report["timing"]
            reports[concurrency, share] = report
    assert len({json.dumps(r, sort_keys=True) for r in reports.values()}) == 1
    assert server.max_in_flight > 1

    answers = {}
    for concurrency in (1, 8):
        loop = ircot(bm25, backend(concurrency), max_iterations=4, docs_per_iteration=2)
        answers[concurrency] = [(r["qid"], r["qanswer"], r["iterations"])
                                for r in run(loop, topics).rows]
    assert answers[1] == answers[8]
    assert {iterations for _, _, iterations in answers[1]} == {1, 2, 3}


# -- the failed prompt's qid ---------------------------------------------------


def test_the_backend_records_its_earliest_failed_prompt(server):
    server.reply = lambda arrival, body: (
        (400, {"error": "bad"}) if prompt_of(body) in ("p2", "p4") else (200, content("ok")))
    with pytest.raises(BackendError) as err:
        make_backend(server).generate([f"p{i}" for i in range(6)])
    assert err.value.prompt == 2 and err.value.qid is None


def test_a_reader_names_the_qid_whose_prompt_failed(server):
    server.reply = lambda arrival, body: (
        (400, {"error": "bad"}) if "Question: second" in prompt_of(body)
        else (200, content("ok")))
    qc = Frame(SemType.QC, [{"qid": qid, "query": query, "qcontext": "c"}
                            for qid, query in (("q1", "first"), ("q2", "second"),
                                               ("q3", "third"))])
    with pytest.raises(PipelineError) as err:
        run(reader(make_backend(server)), qc)
    cause = err.value.cause
    assert isinstance(cause, BackendError)
    assert cause.qid == "q2" and cause.status == 400 and cause.prompt == 1
    assert str(cause).endswith("(qid=q2)")


def test_an_ircot_round_names_the_qid_whose_prompt_failed(server):
    index = index_corpus([{"docno": f"d{i}", "text": text} for i, text in enumerate(
        ["the eiffel tower is in paris", "the colosseum is in rome", "big ben is in london"])])

    # every question goes on to a second round; only q3's second step fails
    def reply(arrival, body):
        prompt = prompt_of(body)
        if "Question: where is big ben" in prompt and prompt.endswith("a step"):
            return 400, {"error": "bad"}
        return 200, content("a step")

    server.reply = reply
    loop = ircot(BM25Retriever(index, include_fields=("text",)), make_backend(server),
                 max_iterations=3)
    topics = Frame(SemType.Q, [{"qid": f"q{i}", "query": q} for i, q in enumerate(
        ["where is the eiffel tower", "where is the colosseum", "where is big ben"], 1)])
    with pytest.raises(PipelineError) as err:
        run(loop, topics)
    assert err.value.path == "ircot"
    assert err.value.cause.qid == "q3" and err.value.cause.status == 400
    assert sum(prompt_of(r["body"]).endswith("a step") for r in server.requests) == 3
