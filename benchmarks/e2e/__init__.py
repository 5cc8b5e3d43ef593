"""Two-clock end-to-end benchmark (see README.md in this directory)."""
