"""repro — Communication-Sensitive Static Dataflow for Message Passing.

A from-scratch Python reproduction of Bronevetsky's CGO 2009 pCFG parallel
dataflow framework, including:

* the MPL message-passing mini-language and its interpreter (ground truth);
* constraint-graph state abstraction with per-process-set namespaces;
* the pCFG dataflow engine (Fig. 4) with exact send-receive matching;
* the Section VII simple symbolic client and the Section VIII Cartesian
  (HSM) client;
* client applications: topology detection, parallel constant propagation,
  communication-bug detection, pattern classification;
* the MPI-CFG and concrete-enumeration baselines.

Quickstart::

    from repro import analyze, programs

    result, cfg, client = analyze(programs.get("exchange_with_root"))
    print(result.topology.describe())
"""

from repro.analyses.bugs import detect_bugs
from repro.analyses.cartesian import CartesianClient, analyze_cartesian
from repro.analyses.constprop import propagate_constants
from repro.analyses.patterns import classify_topology
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.analyses.simple_symbolic import analyze_program as analyze
from repro.core import AnalysisResult, PCFGEngine
from repro.lang import build_cfg, parse, programs
from repro.runtime import run_program

__version__ = "1.1.0"

__all__ = [
    "analyze",
    "analyze_cartesian",
    "SimpleSymbolicClient",
    "CartesianClient",
    "propagate_constants",
    "detect_bugs",
    "classify_topology",
    "PCFGEngine",
    "AnalysisResult",
    "parse",
    "build_cfg",
    "programs",
    "run_program",
    "__version__",
]
