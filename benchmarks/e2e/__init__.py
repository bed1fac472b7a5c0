"""End-to-end served-turn benchmark over real HTTP (see README.md)."""
