"""raysearch — Ray-Data-native inverted-index + BM25 engine over transcript tables.

From-scratch rebuild of the query/data-processing capabilities of the
reference study project ``sergeytupitsyn/searchengine`` (Spring Boot
crawler + Lucene-morphology lemmatizer + MySQL inverted index +
conjunctive ranked search), re-grounded on Parquet transcript tables
``(conv_id, turn_idx, role, text, tool, ts)`` and executed as
``ray.data.Dataset`` pipelines.  See SURVEY.md for the blueprint.

Nothing in this package calls ``ray.init`` / ``ray.shutdown`` — the
driver (or bench.py / the pytest session fixture) owns the Ray session.
"""

__all__ = ["build_index", "IndexSearcher", "index_stats"]


def __getattr__(name):  # lazy: keep `import raysearch.lex` ray-free
    if name == "build_index":
        from raysearch.build import build_index

        return build_index
    if name == "IndexSearcher":
        from raysearch.search import IndexSearcher

        return IndexSearcher
    if name == "index_stats":
        from raysearch.stats_api import index_stats

        return index_stats
    raise AttributeError(name)
