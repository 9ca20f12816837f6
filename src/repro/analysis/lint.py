"""AST-based static lint enforcing ``repro`` framework invariants.

The framework replaces PyTorch with a hand-written substrate, so the
invariants PyTorch enforces mechanically (seeded RNG plumbing, autograd
parity oracles, inference under ``no_grad``, parameter registration) have
to be enforced here — before a violation trains a model wrong.  The
rules:

``unseeded-rng``
    No direct ``np.random.*`` sampling and no zero-argument
    ``np.random.default_rng()`` anywhere under ``src/repro`` except the
    seeded-RNG helper module :mod:`repro.nn.rng`.  Seeded
    ``default_rng(seed)`` calls are fine.

``fused-oracle``
    Every public fused kernel (a module-level function in
    ``nn/functional.py`` / ``nn/attention.py`` / ``nn/rnn.py`` that
    builds a graph node via ``Tensor._make``) must have a parity oracle
    in ``nn/reference.py`` and be exercised in
    ``tests/nn/test_fused_ops.py``.

``eval-no-grad``
    Classes in ``src/repro/eval`` that invoke model forward passes
    (``forward`` / ``forward_batch`` / ``batch_forward``) must contain a
    ``with no_grad():`` block — scoring must never build autograd graphs.

``bare-parameter``
    Inside (transitive) ``Module`` subclasses, trainable state must be
    registered through :class:`repro.nn.module.Parameter`; assigning a
    bare ``Tensor(..., requires_grad=True)`` (or ``zeros``/``ones``/
    ``randn``) to ``self`` hides it from ``parameters()`` and the
    optimizer.

``serve-graph-free``
    Modules under ``src/repro/serve`` (the frozen inference engine) must
    never construct autograd ``Tensor``s — no ``Tensor(...)`` /
    ``ensure_tensor`` / ``Tensor._make`` calls and no imports of graph
    factories from ``repro.nn``.  ``serve/bench.py`` is exempt: it times
    the Tensor path as the comparison baseline.

``worker-boundary``
    The cluster's process-boundary modules (``serve/cluster.py``,
    ``serve/router.py``) may pass only plain primitives and NumPy
    arrays across the worker boundary: no imports from ``repro.nn`` at
    all, and no pipe ``send``/``Process(args=...)`` payload may
    reference a model/plan/Tensor object or a lambda.  The frozen plan
    crosses as a spool-file *path* (the spooled ``FrozenPlan`` itself is
    pure NumPy — ``serve-graph-free`` keeps it that way).

``experiments-via-registry``
    Experiment runners (``src/repro/experiments``) must construct models
    through :func:`repro.registry.build` — no direct backbone/denoiser/
    SSDRec class calls and no ``BACKBONES[...](...)``-style registry
    subscript calls.  Direct construction bypasses the declarative
    :class:`~repro.registry.ModelSpec`, so the run would be invisible to
    the content-addressed run cache.

``atomic-persistence``
    The persistence modules (run store ``runs.py``, ``train/
    checkpoint.py``, the event log ``data/eventlog.py`` and the online
    fine-tune store ``train/online.py``) must write artifacts through
    :mod:`repro.resilience.atomic` — no direct
    ``Path.write_text``/``write_bytes``, ``np.save``/``np.savez``, or
    ``open(..., "w")``.  In-place writes leave torn files behind a
    crash; the atomic helpers publish via temp file + ``os.replace``.

``dtype-discipline``
    Substrate modules (``nn/``, ``serve/``) must allocate arrays with an
    explicit dtype (``np.zeros``/``ones``/``empty``/``full``) and may
    only pin ``np.float64`` in modules listed in :data:`FLOAT64_POLICY`
    (defined in this module) — the visible record of where float64 is
    intentional.  Silent dtype drift (a
    float32 allocation feeding a float64 kernel, or an undocumented
    float64 pin in a future quantized path) breaks the serving parity
    tolerance without failing any test.

``buffer-aliasing``
    Substrate modules may not alias an input as the ``out=`` target of a
    matmul-family call (``matmul``/``dot``/``tensordot``/``einsum`` read
    their inputs while writing), optimizer ``step`` methods must update
    parameters in place (augmented ``p.data -=``, never rebinding
    ``p.data =`` which reallocates storage and breaks version-counter
    aliasing), and methods must not ``return`` a reused ``self._buf*``
    scratch buffer (the next call silently overwrites the caller's
    result).

``bounded-memory``
    The out-of-core modules (``data/store.py``, and ``data/stream.py``
    with the one split and loader) must keep every pass windowed: no
    ``.tolist()`` anywhere, no ``list(...)`` over a store column, and no
    whole-column ``np.asarray``/``np.array``/``copy`` of a bare column
    attribute (``indptr``/``items``/``timestamps``/``noise_flags``).  Any of
    these silently materializes O(events) memory and defeats the mmap
    substrate; windowed slices (``store.items[lo:hi]``) stay allowed.

``exact-oracle``
    Any module touching the approximate retrieval path (``ANNIndex`` /
    ``build_ann_index`` / ``attach_ann_index`` / ``ann_topk``) obliges
    the test suite to pin ANN results against the exact oracle: at
    least one test file must co-reference an ANN name with
    ``topk_from_scores`` (or ``ranks_from_scores``).  Approximate
    retrieval without an exact-parity anchor can drift arbitrarily —
    recall regressions would look like model changes.

To add a rule: write a function taking a :class:`Project` and returning
a list of :class:`Violation`, and decorate it with ``@rule(name,
description)``.  ``scripts/static_check.py`` is the CLI entry point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set

#: Modules (relative to the package root) where explicit ``np.float64``
#: pins are intentional, with the reason on record.  The
#: ``dtype-discipline`` lint rule flags float64 pins anywhere else under
#: ``nn/``/``serve/``; matched site counts per entry are reported into
#: ``LINT_report.json`` by ``scripts/static_check.py`` and
#: ``repro.cli lint``.
FLOAT64_POLICY: Dict[str, str] = {
    "nn/tensor.py": ("autograd substrate is float64 end to end; Tensor "
                     "coerces all float data to float64 on construction"),
    "nn/functional.py": ("fused kernels mirror the float64 substrate; "
                         "loss weights are float64 probabilities"),
    "nn/attention.py": ("the attention-dropout multiplier scales the "
                        "float64 attention weights"),
    "nn/reference.py": ("parity oracles must accumulate in float64 to "
                        "serve as the <=1e-6 comparison baseline"),
    "nn/module.py": ("load_state_dict casts checkpoint payloads to the "
                     "substrate dtype explicitly"),
    "nn/layers.py": ("LayerNorm affine parameters are float64 substrate "
                     "state"),
    "nn/init.py": "initializers allocate float64 parameter storage",
    "nn/gumbel.py": ("Gumbel noise is added to float64 logits; sampling "
                     "in lower precision would bias the soft-top-k"),
    "nn/kernels.py": ("defines the float64 NEG_INF masking sentinel; the "
                      "shared kernels themselves allocate from their "
                      "input dtype"),
    "serve/executors.py": ("serving glue casts masks and allocates "
                           "buffers as float64 to match the float64 "
                           "activations of the training forward"),
    "serve/plan.py": ("freeze() snapshots weights as float64 so frozen "
                      "forwards equal the float64 training forward "
                      "exactly; quantized plans must opt in explicitly"),
    "serve/service.py": ("error Recommendations carry float64 score "
                         "arrays to stay wire-compatible with real "
                         "results"),
    "serve/cluster.py": ("error Recommendations crossing the worker "
                         "boundary mirror the service's float64 layout"),
    "serve/load.py": ("latency accounting is float64 seconds; the plan "
                      "path reuses the serving float64 contract"),
    "serve/retrieval.py": ("the certified float32 selection re-scores "
                           "its candidates in float64 so served scores "
                           "match the float64 score program; the float32 "
                           "table copy is its opt-in, certified by an "
                           "error bound"),
    "serve/ann.py": ("the MIPS index packs float64 copies of the frozen "
                     "item table so candidate scores match the exact "
                     "float64 oracle bitwise on probed clusters"),
    "serve/quant.py": ("dequantization reconstructs the float64 serving "
                       "substrate from int8/fp16 codes; the scale "
                       "vectors themselves are float64"),
}

#: Module (relative to the package root) allowed to create unseeded RNGs.
RNG_ALLOWLIST = {"nn/rng.py"}

#: Modules whose module-level ``Tensor._make`` callers are fused kernels.
FUSED_MODULES = ("nn/functional.py", "nn/attention.py", "nn/rnn.py")
REFERENCE_MODULE = "nn/reference.py"
FUSED_TEST_FILE = Path("nn") / "test_fused_ops.py"

#: Fused ops whose oracle does not follow the ``<name>_unfused`` pattern
#: (sequence kernels are validated against their step oracles).
ORACLE_EXCEPTIONS = {
    "scaled_dot_product_attention": "attention_unfused",
    "lstm_sequence": "lstm_step_unfused",
    "gru_sequence": "gru_step_unfused",
}

#: ``np.random`` attributes that are types/constructors, not sampling.
_RANDOM_TYPE_ATTRS = {"Generator", "BitGenerator", "SeedSequence", "PCG64",
                      "RandomState"}

_FORWARD_METHODS = {"forward", "forward_batch", "batch_forward"}
_TENSOR_FACTORIES = {"Tensor", "zeros", "ones", "randn"}

#: Graph-building names serve/ modules may not import from ``repro.nn``
#: (``no_grad``/``inference_mode`` stay allowed — they *disable* grads).
_GRAPH_FACTORY_IMPORTS = {"Tensor", "ensure_tensor", "Parameter", "zeros",
                          "ones", "randn", "arange"}

#: serve/ modules allowed to touch the Tensor path (benchmark baseline).
SERVE_GRAPH_FREE_EXEMPT = {"serve/bench.py"}

#: Modules forming the serving cluster's process boundary.
WORKER_BOUNDARY_MODULES = ("serve/cluster.py", "serve/router.py")

#: Identifiers that name live model/plan/Tensor objects; none may appear
#: in a payload sent over a worker pipe or in ``Process(args=...)``.
_BOUNDARY_BANNED_NAMES = frozenset({"plan", "model", "module", "tensor",
                                    "Tensor", "Parameter"})

#: Constructors whose results must never cross the worker boundary.
_BOUNDARY_BANNED_CALLS = frozenset({"Tensor", "Parameter", "ensure_tensor",
                                    "freeze"})

#: Method names that ship a payload to another process.
_BOUNDARY_SEND_METHODS = frozenset({"send", "send_bytes", "put",
                                    "put_nowait"})

#: Model class names experiment runners may not instantiate directly
#: (static mirror of BACKBONES + EXTENSION_BACKBONES + DENOISERS +
#: SSDRec — lint parses source without importing it).
MODEL_CLASS_NAMES = frozenset({
    "GRU4Rec", "NARM", "STAMP", "Caser", "SASRec", "BERT4Rec", "SRGNN",
    "DSAN", "FMLPRec", "HSD", "STEAM", "DCRec", "SSDRec",
})

#: Registry-dict names whose subscript-calls are also direct construction.
MODEL_REGISTRY_DICTS = frozenset({"BACKBONES", "EXTENSION_BACKBONES",
                                  "DENOISERS", "MODELS"})

#: Modules that persist run-store / checkpoint artifacts, the
#: append-only event log and the online fine-tune entries: every write
#: must go through repro.resilience.atomic (write-then-``os.replace``).
PERSISTENCE_MODULES = ("runs.py", "train/checkpoint.py",
                       "data/eventlog.py", "train/online.py")

#: Call spellings that write a file in place (non-atomically).
_NONATOMIC_WRITE_ATTRS = {"write_text", "write_bytes"}
_NONATOMIC_NUMPY_WRITERS = {"save", "savez", "savez_compressed"}

#: Module prefixes covered by the substrate dtype/aliasing rules.
SUBSTRATE_PREFIXES = ("nn/", "serve/")

#: Allocators that must state their dtype explicitly (position of the
#: dtype argument when passed positionally).
_DTYPE_ALLOCATORS = {"zeros": 2, "ones": 2, "empty": 2, "full": 3}

#: Matmul-family ufuncs that read every input while writing ``out=``.
_MATMUL_FAMILY = {"matmul", "dot", "tensordot", "einsum"}

#: Out-of-core modules — the store, the windowed reads of any view, the
#: one split and loader every backend runs through, and the Stage 1 graph
#: construction that reads store windows: every pass must stay windowed,
#: so whole-column materialisation patterns are banned outright.
STREAMING_MODULES = ("data/store.py", "data/dataset.py", "data/stream.py",
                     "graph/relations.py")

#: Store column attributes whose bare (unsliced) materialisation would
#: fault the entire mmap into RAM.
STORE_COLUMN_ATTRS = frozenset({"indptr", "items", "timestamps",
                                "noise_flags"})

#: NumPy spellings that copy their argument wholesale.
_WHOLE_COPY_CALLS = frozenset({"asarray", "array", "ascontiguousarray",
                               "copy"})

#: Names that mark a module as using the approximate (ANN) retrieval
#: path; any such module obliges exact-oracle test coverage.
ANN_NAMES = frozenset({"ANNIndex", "build_ann_index", "attach_ann_index",
                       "ann_topk"})

#: Exact-oracle spellings, at least one of which must appear alongside
#: an ANN name in some test file.
EXACT_ORACLE_NAMES = ("topk_from_scores", "ranks_from_scores")


@dataclass
class Violation:
    """One lint finding."""

    rule: str
    path: str
    line: int
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Project:
    """Parsed view of the tree under lint.

    ``package_root`` is the directory of the ``repro`` package (the one
    containing ``nn/``, ``eval/``, ...); ``tests_root`` is the ``tests``
    directory, or None when linting a source-only tree.
    """

    def __init__(self, package_root: Path,
                 tests_root: Optional[Path] = None) -> None:
        self.package_root = Path(package_root)
        self.tests_root = Path(tests_root) if tests_root else None
        self.modules: Dict[str, ast.Module] = {}
        self.parse_errors: List[Violation] = []
        for path in sorted(self.package_root.rglob("*.py")):
            rel = path.relative_to(self.package_root).as_posix()
            try:
                self.modules[rel] = ast.parse(path.read_text(),
                                              filename=str(path))
            except SyntaxError as exc:
                self.parse_errors.append(Violation(
                    rule="parse-error", path=self.display_path(rel),
                    line=exc.lineno or 0, message=str(exc)))

    def display_path(self, rel: str) -> str:
        return (self.package_root / rel).as_posix()


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
@dataclass
class Rule:
    name: str
    description: str
    check: Callable[[Project], List[Violation]]


RULES: Dict[str, Rule] = {}


def rule(name: str, description: str):
    def register(fn: Callable[[Project], List[Violation]]):
        RULES[name] = Rule(name=name, description=description, check=fn)
        return fn
    return register


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name for ``a.b.c`` chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return _attr_chain(node.func)


def _module_functions(tree: ast.Module) -> List[ast.FunctionDef]:
    return [n for n in tree.body if isinstance(n, ast.FunctionDef)]


def _calls_tensor_make(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None and name.endswith("Tensor._make"):
                return True
    return False


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@rule("unseeded-rng",
      "no direct np.random sampling / unseeded default_rng() outside "
      "the seeded helper module repro.nn.rng")
def check_unseeded_rng(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel, tree in project.modules.items():
        if rel in RNG_ALLOWLIST:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _call_name(node)
            if chain is None:
                continue
            for prefix in ("np.random.", "numpy.random."):
                if chain.startswith(prefix):
                    attr = chain[len(prefix):]
                    break
            else:
                continue
            if attr in _RANDOM_TYPE_ATTRS or "." in attr:
                continue
            if attr == "default_rng":
                if node.args or node.keywords:
                    continue  # seeded — fine
                message = ("unseeded np.random.default_rng(); use "
                           "repro.nn.rng.resolve_rng(rng) or pass a seed")
            else:
                message = (f"direct np.random.{attr}() call; thread an "
                           f"explicit Generator (repro.nn.rng) instead")
            violations.append(Violation(
                rule="unseeded-rng", path=project.display_path(rel),
                line=node.lineno, message=message))
    return violations


@rule("fused-oracle",
      "every public fused kernel needs a parity oracle in nn/reference.py "
      "and coverage in tests/nn/test_fused_ops.py")
def check_fused_oracle(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    reference = project.modules.get(REFERENCE_MODULE)
    oracle_names: Set[str] = (
        {fn.name for fn in _module_functions(reference)}
        if reference is not None else set())
    test_text = ""
    test_path = (project.tests_root / FUSED_TEST_FILE
                 if project.tests_root else None)
    if test_path is not None and test_path.exists():
        test_text = test_path.read_text()
    for rel in FUSED_MODULES:
        tree = project.modules.get(rel)
        if tree is None:
            continue
        for fn in _module_functions(tree):
            if fn.name.startswith("_") or not _calls_tensor_make(fn):
                continue
            oracle = ORACLE_EXCEPTIONS.get(fn.name, f"{fn.name}_unfused")
            if oracle not in oracle_names:
                violations.append(Violation(
                    rule="fused-oracle", path=project.display_path(rel),
                    line=fn.lineno,
                    message=(f"fused op {fn.name!r} has no parity oracle "
                             f"{oracle!r} in {REFERENCE_MODULE}")))
            if test_path is not None and fn.name not in test_text:
                violations.append(Violation(
                    rule="fused-oracle", path=project.display_path(rel),
                    line=fn.lineno,
                    message=(f"fused op {fn.name!r} is not exercised in "
                             f"{FUSED_TEST_FILE.as_posix()}")))
    return violations


@rule("eval-no-grad",
      "eval/scoring classes that run model forward passes must use "
      "a no_grad() block")
def check_eval_no_grad(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel, tree in project.modules.items():
        if not rel.startswith("eval/"):
            continue
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            runs_forward = False
            has_no_grad = False
            for node in ast.walk(cls):
                if isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name is not None and \
                            name.split(".")[-1] in _FORWARD_METHODS:
                        runs_forward = True
                if isinstance(node, ast.With):
                    for item in node.items:
                        ctx = item.context_expr
                        if isinstance(ctx, ast.Call):
                            ctx_name = _call_name(ctx)
                            if ctx_name is not None and \
                                    ctx_name.split(".")[-1] == "no_grad":
                                has_no_grad = True
            if runs_forward and not has_no_grad:
                violations.append(Violation(
                    rule="eval-no-grad", path=project.display_path(rel),
                    line=cls.lineno,
                    message=(f"class {cls.name!r} runs model forward "
                             f"passes without a no_grad() block")))
    return violations


@rule("bare-parameter",
      "Module subclasses must register trainable tensors via Parameter, "
      "not bare requires_grad=True attributes")
def check_bare_parameter(project: Project) -> List[Violation]:
    # Map class name -> base-class names across the whole package so
    # transitive Module subclasses (e.g. SequentialRecommender children)
    # are covered.
    bases: Dict[str, List[str]] = {}
    class_nodes: Dict[str, List[tuple]] = {}
    for rel, tree in project.modules.items():
        for cls in (n for n in ast.walk(tree)
                    if isinstance(n, ast.ClassDef)):
            names = []
            for base in cls.bases:
                base_name = (_attr_chain(base)
                             or getattr(base, "id", None))
                if base_name is not None:
                    names.append(base_name.split(".")[-1])
            bases.setdefault(cls.name, names)
            class_nodes.setdefault(cls.name, []).append((rel, cls))

    def is_module_subclass(name: str, seen: Optional[Set[str]] = None
                           ) -> bool:
        if name == "Module":
            return True
        seen = seen or set()
        if name in seen:
            return False
        seen.add(name)
        return any(is_module_subclass(b, seen)
                   for b in bases.get(name, ()))

    violations: List[Violation] = []
    for name, nodes in class_nodes.items():
        if name == "Parameter" or not is_module_subclass(name):
            continue
        for rel, cls in nodes:
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    continue
                targets = [t for t in node.targets
                           if isinstance(t, ast.Attribute)
                           and isinstance(t.value, ast.Name)
                           and t.value.id == "self"]
                if not targets:
                    continue
                call_name = _call_name(node.value)
                if call_name is None or \
                        call_name.split(".")[-1] not in _TENSOR_FACTORIES:
                    continue
                grad_kw = any(
                    kw.arg == "requires_grad"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.value.keywords)
                if grad_kw:
                    violations.append(Violation(
                        rule="bare-parameter",
                        path=project.display_path(rel),
                        line=node.lineno,
                        message=(f"self.{targets[0].attr} in Module "
                                 f"subclass {name!r} is a bare trainable "
                                 f"{call_name.split('.')[-1]}; register "
                                 f"it as a Parameter")))
    return violations


@rule("serve-graph-free",
      "repro.serve executor modules must never construct autograd "
      "Tensors (bench.py exempt: it times the Tensor baseline)")
def check_serve_graph_free(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel, tree in project.modules.items():
        if not rel.startswith("serve/") or rel in SERVE_GRAPH_FREE_EXEMPT:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if "nn" not in module.split("."):
                    continue
                for alias in node.names:
                    if alias.name in _GRAPH_FACTORY_IMPORTS:
                        violations.append(Violation(
                            rule="serve-graph-free",
                            path=project.display_path(rel),
                            line=node.lineno,
                            message=(f"imports graph factory "
                                     f"{alias.name!r} from repro.nn; "
                                     f"serve executors must stay "
                                     f"Tensor-free")))
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name is None:
                    continue
                last = name.split(".")[-1]
                if name.endswith("Tensor._make"):
                    offender = "Tensor._make"
                elif (last in {"Tensor", "ensure_tensor"}
                      and not name.startswith(("np.", "numpy."))):
                    offender = last
                else:
                    continue
                violations.append(Violation(
                    rule="serve-graph-free",
                    path=project.display_path(rel), line=node.lineno,
                    message=(f"{offender}() call builds an autograd "
                             f"graph inside the frozen inference "
                             f"engine")))
    return violations


def _boundary_payload_violations(project: Project, rel: str,
                                 payload: ast.AST) -> List[Violation]:
    """Findings for one expression shipped across the worker boundary."""
    banned_calls = _BOUNDARY_BANNED_CALLS | MODEL_CLASS_NAMES
    banned_names = _BOUNDARY_BANNED_NAMES | MODEL_CLASS_NAMES
    violations: List[Violation] = []
    for node in ast.walk(payload):
        offender = None
        if isinstance(node, ast.Lambda):
            offender = "a lambda (unpicklable, hides arbitrary state)"
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None and name.split(".")[-1] in banned_calls:
                offender = f"a {name.split('.')[-1]}(...) object"
        elif isinstance(node, ast.Name) and node.id in banned_names:
            offender = f"identifier {node.id!r}"
        elif isinstance(node, ast.Attribute) and node.attr in banned_names:
            offender = f"attribute .{node.attr}"
        if offender is not None:
            violations.append(Violation(
                rule="worker-boundary", path=project.display_path(rel),
                line=node.lineno,
                message=(f"{offender} crosses the worker process "
                         f"boundary; only plain primitives and NumPy "
                         f"arrays may be pickled over worker pipes "
                         f"(ship the plan as a spool-file path)")))
    return violations


@rule("worker-boundary",
      "cluster boundary modules (serve/cluster.py, serve/router.py) may "
      "pickle only primitives and NumPy arrays across the worker "
      "boundary — no Tensor/Module/plan objects, no repro.nn imports")
def check_worker_boundary(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel in WORKER_BOUNDARY_MODULES:
        tree = project.modules.get(rel)
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if "nn" in module.split("."):
                    names = ", ".join(a.name for a in node.names)
                    violations.append(Violation(
                        rule="worker-boundary",
                        path=project.display_path(rel), line=node.lineno,
                        message=(f"imports {names} from repro.nn; "
                                 f"nothing from the Tensor/Module layer "
                                 f"may exist in a worker-boundary "
                                 f"module")))
            elif isinstance(node, ast.Call):
                payloads: List[ast.AST] = []
                if isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _BOUNDARY_SEND_METHODS:
                    payloads = list(node.args) + [kw.value
                                                  for kw in node.keywords]
                elif (_call_name(node) or "").split(".")[-1] == "Process":
                    payloads = [kw.value for kw in node.keywords
                                if kw.arg in ("args", "kwargs")]
                for payload in payloads:
                    violations.extend(_boundary_payload_violations(
                        project, rel, payload))
    return violations


@rule("experiments-via-registry",
      "experiment runners must build models via repro.registry.build, "
      "not by calling model classes directly")
def check_experiments_via_registry(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel, tree in project.modules.items():
        if not rel.startswith("experiments/"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is not None and name.split(".")[-1] in MODEL_CLASS_NAMES:
                violations.append(Violation(
                    rule="experiments-via-registry",
                    path=project.display_path(rel), line=node.lineno,
                    message=(f"direct {name.split('.')[-1]}(...) "
                             f"construction in an experiment runner; go "
                             f"through repro.registry.build so the run "
                             f"is cacheable")))
            elif isinstance(node.func, ast.Subscript):
                base = (_attr_chain(node.func.value)
                        or getattr(node.func.value, "id", None))
                if base is not None and \
                        base.split(".")[-1] in MODEL_REGISTRY_DICTS:
                    violations.append(Violation(
                        rule="experiments-via-registry",
                        path=project.display_path(rel), line=node.lineno,
                        message=(f"{base}[...](...) subscript "
                                 f"construction in an experiment runner; "
                                 f"go through repro.registry.build")))
    return violations


def _is_write_open(node: ast.Call) -> bool:
    """True for ``open(..., "w"/"wb"/"a"/...)`` calls (mode arg or kw)."""
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    return any(flag in mode.value for flag in ("w", "a", "+", "x"))


@rule("atomic-persistence",
      "run-store, checkpoint, event-log and online fine-tune modules must "
      "persist through repro.resilience.atomic (write-then-os.replace), "
      "never via direct write_text/write_bytes/np.save*/open(..., 'w')")
def check_atomic_persistence(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel in PERSISTENCE_MODULES:
        tree = project.modules.get(rel)
        if tree is None:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            # .write_text()/.write_bytes() receivers are usually path
            # *expressions* ((entry / "x.json").write_text(...)), so
            # match the method attribute itself, not a dotted chain.
            method = (node.func.attr
                      if isinstance(node.func, ast.Attribute) else None)
            name = _call_name(node)
            message = None
            if method in _NONATOMIC_WRITE_ATTRS:
                message = (f".{method}() writes in place; a crash leaves "
                           f"a torn file — use repro.resilience.atomic")
            elif (name is not None
                  and name.startswith(("np.", "numpy."))
                  and name.split(".")[-1] in _NONATOMIC_NUMPY_WRITERS):
                message = (f"{name}() writes in place; use "
                           f"atomic_save_npy/atomic_save_npz (or npy_bytes "
                           f"+ atomic_write_bytes)")
            elif name == "open" and _is_write_open(node):
                message = ("open() for writing in a persistence module; "
                           "use repro.resilience.atomic")
            if message is not None:
                violations.append(Violation(
                    rule="atomic-persistence",
                    path=project.display_path(rel), line=node.lineno,
                    message=message))
    return violations


def _float64_pins(tree: ast.Module) -> List[ast.AST]:
    """Nodes that explicitly pin float64: ``np.float64`` attribute chains
    and ``dtype="float64"`` string constants."""
    pins: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain in ("np.float64", "numpy.float64"):
                pins.append(node)
        elif (isinstance(node, ast.keyword) and node.arg == "dtype"
              and isinstance(node.value, ast.Constant)
              and node.value.value == "float64"):
            pins.append(node)
    return pins


@rule("dtype-discipline",
      "substrate (nn/, serve/) allocations must state an explicit dtype, "
      "and float64 pins are only allowed in FLOAT64_POLICY modules")
def check_dtype_discipline(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel, tree in project.modules.items():
        if not rel.startswith(SUBSTRATE_PREFIXES):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _call_name(node)
            if chain is None or not chain.startswith(("np.", "numpy.")):
                continue
            attr = chain.split(".", 1)[1]
            pos = _DTYPE_ALLOCATORS.get(attr)
            if pos is None:
                continue
            has_dtype = (len(node.args) >= pos
                         or any(kw.arg == "dtype" for kw in node.keywords))
            if not has_dtype:
                violations.append(Violation(
                    rule="dtype-discipline",
                    path=project.display_path(rel), line=node.lineno,
                    message=(f"np.{attr}() without an explicit dtype; "
                             f"substrate allocations must state their "
                             f"dtype so float64 discipline is visible, "
                             f"not inherited")))
        if rel in FLOAT64_POLICY:
            continue
        for pin in _float64_pins(tree):
            violations.append(Violation(
                rule="dtype-discipline", path=project.display_path(rel),
                line=pin.lineno,
                message=("explicit float64 pin outside FLOAT64_POLICY "
                         "(repro.analysis.lint); add the module "
                         "with a reason or drop the pin")))
    return violations


@rule("buffer-aliasing",
      "no out=-aliasing of matmul-family inputs, no p.data rebinding in "
      "optimizer step(), no returning reused self._buf* scratch buffers")
def check_buffer_aliasing(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel, tree in project.modules.items():
        if not rel.startswith(SUBSTRATE_PREFIXES):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = _call_name(node)
                if (chain is None
                        or not chain.startswith(("np.", "numpy."))
                        or chain.split(".")[-1] not in _MATMUL_FAMILY):
                    continue
                out_expr = next((kw.value for kw in node.keywords
                                 if kw.arg == "out"), None)
                if out_expr is None:
                    continue
                out_name = _attr_chain(out_expr) or getattr(
                    out_expr, "id", None)
                if out_name is None:
                    continue
                for arg in node.args:
                    arg_name = _attr_chain(arg) or getattr(arg, "id", None)
                    if arg_name == out_name:
                        violations.append(Violation(
                            rule="buffer-aliasing",
                            path=project.display_path(rel),
                            line=node.lineno,
                            message=(f"{chain}(..., out={out_name}) "
                                     f"aliases input {arg_name!r}; "
                                     f"matmul-family kernels read their "
                                     f"inputs while writing out= — "
                                     f"results are silently wrong")))
                        break
            elif (isinstance(node, ast.Return)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr.startswith("_buf")
                  and isinstance(node.value.value, ast.Name)
                  and node.value.value.id == "self"):
                violations.append(Violation(
                    rule="buffer-aliasing", path=project.display_path(rel),
                    line=node.lineno,
                    message=(f"returns reused scratch buffer "
                             f"self.{node.value.attr}; the next call "
                             f"overwrites the caller's result — return "
                             f"a copy")))
        for cls in (n for n in ast.walk(tree)
                    if isinstance(n, ast.ClassDef)):
            for fn in (n for n in cls.body
                       if isinstance(n, ast.FunctionDef)
                       and n.name == "step"):
                for sub in ast.walk(fn):
                    if not isinstance(sub, ast.Assign):
                        continue
                    for target in sub.targets:
                        if isinstance(target, ast.Attribute) and \
                                target.attr == "data":
                            violations.append(Violation(
                                rule="buffer-aliasing",
                                path=project.display_path(rel),
                                line=sub.lineno,
                                message=(f"{cls.name}.step() rebinds "
                                         f".data, reallocating parameter "
                                         f"storage; update in place with "
                                         f"an augmented assignment "
                                         f"(p.data -= ...)")))
    return violations


def _bare_column_attr(node: ast.AST) -> Optional[str]:
    """Column name if ``node`` is a bare store-column attribute access
    (``store.items``, ``self.timestamps``) — not a windowed slice."""
    if isinstance(node, ast.Attribute) and node.attr in STORE_COLUMN_ATTRS:
        return node.attr
    return None


@rule("bounded-memory",
      "streaming data modules must keep every pass windowed: no "
      ".tolist(), no list(<column>), no whole-column np.asarray/"
      "np.array/copy of a bare store column")
def check_bounded_memory(project: Project) -> List[Violation]:
    violations: List[Violation] = []
    for rel in STREAMING_MODULES:
        tree = project.modules.get(rel)
        if tree is None:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            message = None
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "tolist":
                message = (".tolist() materializes a Python list of the "
                           "whole array; streaming modules must stay "
                           "windowed (iterate ndarray slices instead)")
            elif isinstance(node.func, ast.Name) and \
                    node.func.id == "list" and node.args:
                column = _bare_column_attr(node.args[0])
                if column is not None:
                    message = (f"list(...{column}) walks the entire "
                               f"{column!r} column element-by-element; "
                               f"slice a bounded window instead")
            else:
                name = _call_name(node)
                if (name is not None
                        and name.startswith(("np.", "numpy."))
                        and name.split(".")[-1] in _WHOLE_COPY_CALLS
                        and node.args):
                    column = _bare_column_attr(node.args[0])
                    if column is not None:
                        message = (f"{name}() copies the whole "
                                   f"{column!r} column out of the mmap; "
                                   f"operate on bounded windows "
                                   f"({column}[lo:hi])")
            if message is not None:
                violations.append(Violation(
                    rule="bounded-memory",
                    path=project.display_path(rel), line=node.lineno,
                    message=message))
    return violations


def _ann_reference(tree: ast.Module) -> Optional[tuple]:
    """First ANN-name reference in a module as ``(name, lineno)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ANN_NAMES:
            return node.id, node.lineno
        if isinstance(node, ast.Attribute) and node.attr in ANN_NAMES:
            return node.attr, node.lineno
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                leaf = alias.name.split(".")[-1]
                if leaf in ANN_NAMES:
                    return leaf, node.lineno
    return None


@rule("exact-oracle",
      "modules using ANN retrieval (ANNIndex/build_ann_index/"
      "attach_ann_index/ann_topk) require a test file pinning ANN "
      "results against the exact topk_from_scores oracle")
def check_exact_oracle(project: Project) -> List[Violation]:
    users = []
    for rel, tree in sorted(project.modules.items()):
        ref = _ann_reference(tree)
        if ref is not None:
            users.append((rel, ref))
    if not users or project.tests_root is None:
        return []
    for path in sorted(project.tests_root.rglob("*.py")):
        text = path.read_text()
        if any(name in text for name in ANN_NAMES) and \
                any(oracle in text for oracle in EXACT_ORACLE_NAMES):
            return []  # the exact-parity anchor exists
    oracles = "/".join(EXACT_ORACLE_NAMES)
    return [Violation(
        rule="exact-oracle", path=project.display_path(rel),
        line=lineno,
        message=(f"module references ANN retrieval ({name!r}) but no "
                 f"test file co-references an ANN name with the exact "
                 f"oracle ({oracles}); add a parity test pinning ANN "
                 f"results to the exact top-k"))
        for rel, (name, lineno) in users]


def dtype_policy_report(project: Project) -> Dict[str, Dict[str, object]]:
    """Per-module float64-exemption summary for the lint report.

    Every :data:`FLOAT64_POLICY` entry is listed with its reason and the
    number of float64 sites actually present, so an exemption can never
    hide by silence.
    """
    report: Dict[str, Dict[str, object]] = {}
    for rel, reason in sorted(FLOAT64_POLICY.items()):
        tree = project.modules.get(rel)
        sites = len(_float64_pins(tree)) if tree is not None else 0
        report[rel] = {"reason": reason, "float64_sites": sites}
    return report


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_lint(package_root: Path, tests_root: Optional[Path] = None,
             rules: Optional[Iterable[str]] = None) -> List[Violation]:
    """Run the selected rules (default: all) over a source tree.

    Returns all violations sorted by path/line.
    """
    project = Project(package_root, tests_root=tests_root)
    selected = list(rules) if rules is not None else list(RULES)
    unknown = [name for name in selected if name not in RULES]
    if unknown:
        raise ValueError(f"unknown lint rules: {unknown}; "
                         f"available: {sorted(RULES)}")
    violations = list(project.parse_errors)
    for name in selected:
        violations.extend(RULES[name].check(project))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))
