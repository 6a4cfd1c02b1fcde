"""Reference implementations that only the tests compare fast paths
against."""
