import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ragkit.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "nq_mini"


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "idx"
    rc = main(["index",
               "--corpus", str(FIXTURES / "corpus.jsonl"),
               "--out", str(out),
               "--store-fields", "text,title"])
    assert rc == 0
    return out


class TestIndexCommand:
    def test_builds_directory_and_reports_stats(self, tmp_path, capsys):
        out = tmp_path / "idx"
        rc = main(["index", "--corpus", str(FIXTURES / "corpus.jsonl"),
                   "--out", str(out)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["N"] == 60
        assert stats["avgdl"] > 0 and stats["terms"] > 0
        assert (out / "manifest.json").exists()

    def test_stopword_file(self, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nis\nof\n\n")
        rc = main(["index", "--corpus", str(FIXTURES / "corpus.jsonl"),
                   "--out", str(tmp_path / "idx"), "--stopwords", str(stop)])
        assert rc == 0
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["stopwords"] == ["is", "of", "the"]

    def test_stopword_file_is_read_as_utf8_under_any_locale(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("für\nthe\n", encoding="utf-8")
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "ragkit.cli", "index",
             "--corpus", str(FIXTURES / "corpus.jsonl"), "--out", str(tmp_path / "idx"),
             "--stopwords", str(stop)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["stopwords"] == ["für", "the"]

    def test_missing_corpus_file(self, tmp_path, capsys):
        rc = main(["index", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "idx")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSearchCommand:
    def test_single_query_run_lines(self, index_dir, capsys):
        rc = main(["search", "--index", str(index_dir),
                   "--query", "capital of France", "-k", "3", "--tag", "t1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        first = lines[0].split()
        assert first[0] == "1" and first[1] == "Q0" and first[5] == "t1"
        assert first[3] == "0"
        float(first[4])

    def test_topics_file_mode(self, index_dir, capsys):
        rc = main(["search", "--index", str(index_dir),
                   "--topics", str(FIXTURES / "topics_dev.jsonl"), "-k", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 50
        assert lines[0].startswith("nq000 Q0 ")

    def test_a_qid_run_files_cannot_hold_is_refused(self, index_dir, tmp_path, capsys):
        topics = tmp_path / "topics.jsonl"
        topics.write_text('{"qid": "q 1", "query": "paris"}\n', encoding="utf-8")
        rc = main(["search", "--index", str(index_dir), "--topics", str(topics)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'q 1'" in captured.err

    def test_bm25_parameters_accepted(self, index_dir, capsys):
        rc = main(["search", "--index", str(index_dir), "--query", "paris",
                   "--k1", "0.5", "--b", "0.2", "-k", "1"])
        assert rc == 0

    def test_bad_index_dir(self, tmp_path, capsys):
        rc = main(["search", "--index", str(tmp_path), "--query", "x"])
        assert rc == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_non_positive_k_is_refused(self, index_dir, capsys, k):
        rc = main(["search", "--index", str(index_dir), "--query", "paris", "-k", k])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k > 0" in captured.err

    @pytest.mark.parametrize("tag", ["my run", ""])
    def test_a_tag_run_files_cannot_hold_is_refused(self, index_dir, capsys, tag):
        rc = main(["search", "--index", str(index_dir), "--query", "paris", "--tag", tag])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "run tag" in captured.err

    def test_format_1_index_asks_for_a_rebuild(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"format_version": 1}')
        rc = main(["search", "--index", str(tmp_path), "--query", "x"])
        assert rc == 1
        assert "ragkit index" in capsys.readouterr().err

    def test_format_2_index_asks_for_a_rebuild(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"format_version": 2}')
        (tmp_path / "stored.json").write_text("[]")
        rc = main(["search", "--index", str(tmp_path), "--query", "x"])
        assert rc == 1
        assert "format_version 2" in capsys.readouterr().err

    def test_a_flipped_stored_byte_is_refused(self, index_dir, tmp_path, capsys):
        damaged = tmp_path / "damaged"
        shutil.copytree(index_dir, damaged)
        blob = bytearray((damaged / "stored_0.bin").read_bytes())
        blob[0] ^= 1
        (damaged / "stored_0.bin").write_bytes(bytes(blob))
        rc = main(["search", "--index", str(damaged), "--query", "paris"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "corrupt index" in captured.err


class TestAskCommand:
    def test_rag_pipeline_answers(self, index_dir, capsys):
        rc = main(["ask", "--index", str(index_dir),
                   "--pipeline",
                   "bm25(k=1) >> concat(docs=1) >> reader(backend=stub:extract)",
                   "--question", "what is the capital of France"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == ("Paris is the capital and largest administrative "
                       "centre of France")

    def test_trace_goes_to_stderr(self, index_dir, capsys):
        rc = main(["ask", "--index", str(index_dir),
                   "--pipeline", "bm25 >> concat >> reader", "--trace",
                   "--question", "capital of Japan"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "trace: then.left/then.left/bm25:" in err
        assert err.count("trace:") == 5  # three leaves plus two then nodes

    def test_zeroshot_needs_no_index(self, capsys):
        rc = main(["ask", "--pipeline", "zeroshot(backend=stub:echo)",
                   "--question", "anything at all"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "anything at all"

    def test_non_qa_pipeline_is_rejected(self, index_dir, capsys):
        rc = main(["ask", "--index", str(index_dir), "--pipeline", "bm25",
                   "--question", "x"])
        assert rc == 1
        assert "must map Q -> A" in capsys.readouterr().err

    def test_expression_errors_fail_cleanly(self, index_dir, capsys):
        rc = main(["ask", "--index", str(index_dir), "--pipeline", "bm25 >>",
                   "--question", "x"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_index_needed_but_not_given(self, capsys):
        rc = main(["ask", "--pipeline", "bm25 >> concat >> reader",
                   "--question", "x"])
        assert rc == 1
        assert "--index" in capsys.readouterr().err


class TestExperimentCommand:
    def run_experiment(self, index_dir, tmp_path, *extra):
        report_path = tmp_path / "report.json"
        argv = ["experiment", "--index", str(index_dir),
                "--system", "rag=bm25(k=1) >> concat(docs=1) >> reader(backend=stub:extract)",
                "--system", "echo=zeroshot(backend=stub:echo)",
                "--topics", str(FIXTURES / "topics_dev.jsonl"),
                "--answers", str(FIXTURES / "answers_dev.jsonl"),
                "--report", str(report_path), *extra]
        return main(argv), report_path

    def test_writes_report_and_prints_table(self, index_dir, tmp_path, capsys):
        rc, report_path = self.run_experiment(index_dir, tmp_path)
        assert rc == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split() == ["system", "EM", "F1"]
        assert "rag" in table and "echo" in table
        report = json.loads(report_path.read_text())
        assert report["systems"] == ["rag", "echo"]
        assert set(report["per_query"]["rag"]) == {f"nq{i:03d}" for i in range(50)}
        # the extractive reader names the capital inside a ~9 token sentence:
        # no exact match, F1 near 2/10 per query. The echoed question almost
        # never overlaps the gold capital (Mexico/Mexico City is the rare hit)
        assert report["aggregates"]["rag"]["EM"] == 0.0
        assert 0.15 < report["aggregates"]["rag"]["F1"] < 0.4
        assert report["aggregates"]["echo"]["F1"] < 0.01
        assert report["aggregates"]["rag"]["F1"] > report["aggregates"]["echo"]["F1"]

    def test_baseline_and_correction(self, index_dir, tmp_path, capsys):
        rc, report_path = self.run_experiment(
            index_dir, tmp_path, "--baseline", "echo", "--correction")
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["baseline"] == "echo"
        assert report["correction"] == "holm"
        assert 0.0 <= report["significance"]["rag"]["F1"] <= 1.0
        assert "baseline" in capsys.readouterr().out

    def test_baseline_over_one_topic_prints_na(self, index_dir, tmp_path, capsys):
        for name in ("topics_dev.jsonl", "answers_dev.jsonl"):
            first = (FIXTURES / name).read_text(encoding="utf-8").splitlines()[0]
            (tmp_path / name).write_text(first + "\n", encoding="utf-8")
        rc = main(["experiment", "--index", str(index_dir),
                   "--system", "rag=bm25(k=1) >> concat(docs=1) >> reader(backend=stub:extract)",
                   "--system", "echo=zeroshot(backend=stub:echo)",
                   "--topics", str(tmp_path / "topics_dev.jsonl"),
                   "--answers", str(tmp_path / "answers_dev.jsonl"),
                   "--report", str(tmp_path / "report.json"), "--baseline", "echo"])
        assert rc == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [row[0] for row in rows] == ["rag", "echo"]
        assert rows[0][-2:] == ["n/a", "n/a"] and rows[1][-2:] == ["baseline", "baseline"]
        assert json.loads((tmp_path / "report.json").read_text())["significance"] == {}

    def test_csv_output(self, index_dir, tmp_path, capsys):
        csv_path = tmp_path / "scores.csv"
        rc, _ = self.run_experiment(index_dir, tmp_path, "--csv", str(csv_path))
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "system,qid,measure,score"
        assert len(lines) == 1 + 2 * 50 * 2

    def test_share_prefix_toggle_changes_nothing(self, index_dir, tmp_path, capsys):
        rc1, path1 = self.run_experiment(index_dir, tmp_path)
        shared = json.loads(path1.read_text())
        rc2, path2 = self.run_experiment(index_dir, tmp_path, "--no-share-prefix")
        unshared = json.loads(path2.read_text())
        assert rc1 == rc2 == 0
        assert shared["aggregates"] == unshared["aggregates"]
        assert shared["per_query"] == unshared["per_query"]

    def test_batch_size(self, index_dir, tmp_path, capsys):
        rc, report_path = self.run_experiment(index_dir, tmp_path,
                                              "--batch-size", "7")
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["per_query"]["rag"]) == 50

    def test_bad_system_spec(self, index_dir, tmp_path, capsys):
        rc = main(["experiment", "--index", str(index_dir),
                   "--system", "justaname",
                   "--topics", str(FIXTURES / "topics_dev.jsonl"),
                   "--answers", str(FIXTURES / "answers_dev.jsonl")])
        assert rc == 1
        assert "NAME=EXPR" in capsys.readouterr().err

    def test_unknown_measure(self, index_dir, tmp_path, capsys):
        rc, _ = self.run_experiment(index_dir, tmp_path, "--measures", "em,bleu")
        assert rc == 1
        assert "valid measures" in capsys.readouterr().err

    def test_unknown_baseline(self, index_dir, tmp_path, capsys):
        rc, _ = self.run_experiment(index_dir, tmp_path, "--baseline", "nope")
        assert rc == 1
        assert "baseline" in capsys.readouterr().err

    def test_a_topic_matching_no_term_is_warned_about(self, index_dir, tmp_path, capsys):
        # bm25 retrieves nothing for it, so the rag system has no answer
        (tmp_path / "topics.jsonl").write_text(
            json.dumps({"qid": "nomatch", "query": "zzyzx qwxq"}) + "\n")
        (tmp_path / "answers.jsonl").write_text(
            json.dumps({"qid": "nomatch", "answers": ["paris"]}) + "\n")
        rc = main(["experiment", "--index", str(index_dir),
                   "--system", "rag=bm25(k=1) >> concat >> reader(backend=stub:extract)",
                   "--system", "echo=zeroshot(backend=stub:echo)",
                   "--topics", str(tmp_path / "topics.jsonl"),
                   "--answers", str(tmp_path / "answers.jsonl"),
                   "--report", str(tmp_path / "report.json")])
        assert rc == 0
        err = capsys.readouterr().err
        assert err == "warning: system 'rag' produced no answer for qid 'nomatch'\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["per_query"]["rag"]["nomatch"] == {"EM": 0.0, "F1": 0.0}


class TestConvertCommand:
    def test_corpus(self, tmp_path, capsys):
        src = tmp_path / "src.jsonl"
        src.write_text(json.dumps({"id": "a1", "contents": "text here"}) + "\n")
        dst = tmp_path / "corpus.jsonl"
        rc = main(["convert", "corpus", str(src), str(dst)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"documents": 1}
        assert json.loads(dst.read_text()) == {"docno": "a1", "text": "text here"}

    def test_qa(self, tmp_path, capsys):
        src = tmp_path / "qa.jsonl"
        src.write_text(json.dumps({
            "id": "q1", "question": "who", "golden_answers": ["x"]}) + "\n")
        rc = main(["convert", "qa", str(src),
                   str(tmp_path / "t.jsonl"), str(tmp_path / "a.jsonl")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"topics": 1}
        assert json.loads((tmp_path / "t.jsonl").read_text())["query"] == "who"
        assert json.loads((tmp_path / "a.jsonl").read_text())["answers"] == ["x"]

    def test_convert_errors(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text(json.dumps({"contents": "no id"}) + "\n")
        rc = main(["convert", "corpus", str(src), str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("ragkit ")


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit):
        main([])
