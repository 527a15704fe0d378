class BudgetError(Exception):
    """A requested computation exceeds the memory or enumeration budget."""
