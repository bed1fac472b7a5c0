"""Clean near-miss for the API-hygiene rule: the restore sits in finally."""


def safe(model):
    model.eval()
    try:
        return model.run()
    finally:
        model.train()
