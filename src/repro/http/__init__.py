"""HTTP protocol library.

Plays the role of COPS-HTTP's hand-written "HTTP protocol code"
(Table 4: 10 classes, 449 NCSS): request/response models, an
incremental parser providing the framing hook the generated
Read-Request step needs, status codes and MIME types.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "headers": ("Headers",),
    "mime": ("DEFAULT_TYPE", "MIME_TYPES", "guess_type"),
    "parser": (
        "MAX_BODY_BYTES", "MAX_HEAD_BYTES", "parse_request", "split_request",
    ),
    "request": ("BadRequest", "HttpRequest"),
    "response": ("HttpResponse", "error_response", "http_date"),
    "status": ("REASONS", "reason_phrase"),
})
