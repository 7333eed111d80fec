"""Full-protocol benchmark of the Herd reproduction (see README.md)."""
