class BudgetError(Exception):
    """A requested computation exceeds a memory or size budget."""
