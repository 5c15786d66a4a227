"""The trial path runs without networkx.

networkx serves structural queries (diameter, ``nx_graph``) and three
generators (``regular``, ``tree``, ``hypercube``) only, imported on
first use.  Importing the package and running paper trials on the
array-built families must leave it unimported.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_isolated(code: str) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_import_repro_leaves_networkx_out():
    proc = run_isolated("""
        import sys
        import repro
        assert "networkx" not in sys.modules, "import repro loaded networkx"
    """)
    assert proc.returncode == 0, proc.stderr


def test_paper_trials_leave_networkx_out():
    proc = run_isolated("""
        import sys
        from repro import ExperimentSpec
        topologies = [
            ("ring", {"n": 12}),
            ("grid", {"rows": 4, "cols": 5}),
            ("torus", {"rows": 4, "cols": 5}),
            ("gnp", {"n": 20, "p": 0.3, "seed": 1}),
            ("sparse", {"n": 30, "seed": 2}),
        ]
        for protocol in ("coloring", "mis", "matching"):
            for topology, params in topologies:
                result = ExperimentSpec(protocol, topology,
                                        topology_params=params, seed=1).run()
                assert result.silent and result.legitimate
        assert "networkx" not in sys.modules, "a trial loaded networkx"
    """)
    assert proc.returncode == 0, proc.stderr
