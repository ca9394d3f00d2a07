"""CO2P3S: the generative design pattern engine.

Option model, fragment-based code generation, pattern-template registry,
crosscut analysis (Table 2) and code metrics (Tables 3 and 4).  The
N-Server template lives in :mod:`repro.co2p3s.nserver`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "codegen": (
        "ClassSpec", "CodeGenerator", "Fragment", "GeneratedClass",
        "GenerationReport", "ModuleSpec", "OMIT", "always", "when",
    ),
    "metrics": (
        "CodeMetrics", "measure_file", "measure_paths", "measure_source",
    ),
    "options": ("OptionError", "OptionSet", "OptionSpec"),
    "template": (
        "PatternTemplate", "available_templates", "get_template",
        "load_generated_package", "register_template",
    ),
})
