"""Tests for snippets (DocSnippets merge semantics) and exports."""

import pandas as pd
import pytest


class TestDocSnippets:
    def test_merge_rule(self):
        from alix_ray.ops.snippets import doc_snippets

        text = "aa bb target cc target dd ee ff gg hh ii jj kk target ll"
        # matches at token idx 2, 4, 13; gap=6 → first two merge, third apart
        out = doc_snippets(text, {"target"}, merge_gap=6, ctx=1)
        assert len(out) == 2
        (s1, e1, sc1, h1), (s2, e2, sc2, h2) = out
        assert (s1, e1) == (2, 4)
        assert (s2, e2) == (13, 13)
        assert h1.count("<mark>target</mark>") == 2
        assert h2.count("<mark>target</mark>") == 1

    def test_score_distinct_terms(self):
        from alix_ray.ops.snippets import doc_snippets

        text = "x alpha beta alpha y"
        out = doc_snippets(text, {"alpha", "beta"}, merge_gap=6, ctx=0,
                           idf={"alpha": 2.0, "beta": 3.0})
        assert len(out) == 1
        assert out[0][2] == pytest.approx(5.0)  # dedup per snippet

    def test_no_match(self):
        from alix_ray.ops.snippets import doc_snippets

        assert doc_snippets("nothing here", {"zz"}) == []


W2V_AT_TWO_CPUS = r"""
from alix_ray.pipelines.queries import q_w2v_corpus

got = q_w2v_corpus(sf_dir)
print("rows", len(got))
print(got["line"].iloc[0])
"""


class TestExports:
    def test_token_table_positions(self, ray_session):
        import ray.data

        from alix_ray.ops.export import token_table

        ds = ray.data.from_items(
            [{"doc_id": 1, "text": "Alpha, beta! gamma"},
             {"doc_id": 2, "text": ""}]
        )
        df = token_table(ds).to_pandas().sort_values(["doc_id", "pos"])
        assert df["term"].tolist() == ["alpha", "beta", "gamma"]
        assert df["pos"].tolist() == [1, 2, 3]  # 1-based (SQL parity)

    def test_french_token_table_has_gaps(self, ray_session):
        import ray.data

        from alix_ray.ops.export import french_token_table

        ds = ray.data.from_items(
            [{"doc_id": 1, "text": "Le chat, vraiment, dormait."}]
        )
        df = french_token_table(ds, concurrency=2).to_pandas()
        # 'Le' is a stop word → hole at position 0; commas leave holes
        assert 0 not in df["pos"].tolist()
        assert set(df["term"]) == {"chat", "vraiment", "dormir"}  # lemma

    def test_w2v_lines(self, ray_session):
        import ray.data

        from alix_ray.ops.export import w2v_corpus

        ds = ray.data.from_items(
            [{"doc_id": 1, "text": "Les enfants étaient contents."}]
        )
        df = w2v_corpus(ds).to_pandas()
        line = df["line"].iloc[0]
        # 'Les' stopworded; 'étaient' (AUX) POS-filtered; enfant
        # lemmatized; 'contents' unknown-POS kept
        assert "enfant" in line
        assert "être" not in line and "étaient" not in line

    def test_w2v_corpus_progresses_at_two_cpus(self, tmp_path):
        """``q_w2v_corpus`` under a 2-CPU Ray: the analyzer actor pool
        must leave a CPU to the read and ``repartition`` tasks that
        feed it, or neither side makes progress."""
        from conftest import run_at_two_cpus

        texts = [f"Les enfants étaient contents du jardin numéro {i}."
                 for i in range(60)]
        pd.DataFrame({"doc_id": range(60), "text": texts}).to_parquet(
            tmp_path / "documents.parquet")
        stdout = run_at_two_cpus(W2V_AT_TWO_CPUS, tmp_path, "q_w2v_corpus")
        assert "rows 60" in stdout
        assert "enfant contents jardin numéro" in stdout

    def test_snippets_pipeline(self, ray_session):
        import ray.data

        from alix_ray.ops.snippets import snippets_pipeline

        ds = ray.data.from_items(
            [{"doc_id": 7, "text": "one target two three target four"}]
        )
        df = snippets_pipeline(ds, ["target"]).to_pandas()
        assert len(df) == 1
        assert "<mark>target</mark>" in df["html"].iloc[0]


class TestMilestones:
    def test_milestone_markers_in_fragment(self):
        """HiliteSnippets.java:60 milestone events: structural markers
        land inside the fragment at their character offset."""
        from alix_ray.ops.snippets import doc_snippets

        text = "alpha beta target gamma delta"
        # page break between 'beta' and 'target' (offset 11)
        out = doc_snippets(text, {"target"}, merge_gap=2, ctx=2,
                           milestones=[(11, "pb")])
        assert len(out) == 1
        html = out[0][3]
        assert '<milestone unit="pb"/>' in html
        assert html.index("milestone") < html.index("<mark>")
        # marker must not duplicate or drop fragment text
        stripped = html.replace('<milestone unit="pb"/>', "").replace(
            "<mark>", "").replace("</mark>", "")
        assert stripped == text

    def test_milestone_inside_mark_emitted_after(self):
        from alix_ray.ops.snippets import doc_snippets

        text = "aa target bb"
        out = doc_snippets(text, {"target"}, ctx=1,
                           milestones=[(5, "pb")])  # inside 'target'
        html = out[0][3]
        assert html.index("</mark>") < html.index("<milestone")

    def test_milestones_outside_fragment_ignored(self):
        from alix_ray.ops.snippets import doc_snippets

        text = "x " * 50 + "target" + " y" * 50
        out = doc_snippets(text, {"target"}, ctx=1, milestones=[(0, "pb")])
        assert "<milestone" not in out[0][3]
