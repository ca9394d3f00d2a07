"""FTP protocol library: replies, virtual filesystem, users, and the
control-connection session state machine.

Plays the role Table 3 assigns to the reused Apache FTPServer code base:
an existing FTP implementation that COPS-FTP (``repro.servers.cops_ftp``)
adapts onto the event-driven generated framework.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "auth": ("AuthError", "User", "UserRegistry"),
    "replies": ("REPLY_TEXT", "multiline_reply", "reply"),
    "session": ("FtpSession", "SessionResult", "TransferAction"),
    "threaded_server": ("ThreadedFtpServer",),
    "vfs": ("DirNode", "FileNode", "VfsError", "VirtualFS"),
})
