"""Speed-adjusted benchmark of fppkit's batch experiments; see README.md."""
