"""Host-time benchmark of the HawkEye simulator (see README.md)."""
