"""The applications built from the N-Server template: COPS-HTTP,
COPS-FTP, and the trivial Time server."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "cops_ftp": ("CopsFtpHooks", "build_cops_ftp", "default_ftp_fs"),
    "cops_http": ("CopsHttpHooks", "PriorityByPeerHooks", "build_cops_http"),
    "mail_server": (
        "MAIL_SERVER_OPTIONS", "MailServerHooks", "build_mail_server",
    ),
    "time_server": (
        "TIME_SERVER_OPTIONS", "TimeServerHooks", "build_time_server",
    ),
})
