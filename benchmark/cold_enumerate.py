"""Fresh-process helper of the traced search-n8 run: times a cold
enumerate_graphs(8, connected_only=True) and prints one JSON object with
that time and the corpus as graph6 records.  Needs PYTHONPATH=<checkout>/src.
"""

import json
import time

from kabminor import enumerate_graphs, to_graph6

t0 = time.perf_counter()
corpus = enumerate_graphs(8, connected_only=True)
elapsed = time.perf_counter() - t0
print(json.dumps({"enumerate_s": elapsed, "corpus": [to_graph6(g) for g in corpus]}))
