"""Published JSON Schemas for the state document and the CLI's JSON output."""

_TERM = {
    "type": "object",
    "required": ["op"],
    "properties": {"op": {"type": "string"}},
}

STATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "sccpe/state.schema.json",
    "title": "System state",
    "type": "object",
    "required": ["objects"],
    "additionalProperties": False,
    "properties": {
        "objects": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "aid", "payload"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["store", "process"]},
                    "aid": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "payload": _TERM,
                },
            },
        }
    },
}

_WITNESS = {
    "type": "object",
    "required": ["aid", "store"],
    "additionalProperties": False,
    "properties": {
        "aid": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "store": {"type": "string"},
        "store_term": _TERM,
    },
}

CLI_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "sccpe/cli-output.schema.json",
    "title": "CLI JSON output",
    "oneOf": [
        {
            "type": "object",
            "required": ["command", "terminal_states", "states", "truncated"],
            "additionalProperties": False,
            "properties": {
                "command": {"const": "run"},
                "terminal_states": {"type": "array", "items": STATE_SCHEMA},
                "states": {"type": "integer", "minimum": 0},
                "truncated": {"type": "boolean"},
            },
        },
        {
            "type": "object",
            "required": ["command", "query", "solutions", "states", "truncated"],
            "additionalProperties": False,
            "properties": {
                "command": {"const": "search"},
                "query": {"type": "string"},
                "solutions": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["solution", "state", "witnesses"],
                        "additionalProperties": False,
                        "properties": {
                            "solution": {"type": "integer", "minimum": 1},
                            "state": {"type": "integer", "minimum": 0},
                            "witnesses": {"type": "array", "items": _WITNESS},
                        },
                    },
                },
                "states": {"type": "integer", "minimum": 0},
                "truncated": {"type": "boolean"},
                "depth_cut": {"type": "boolean"},
                "capped": {"type": "boolean"},
            },
        },
        {
            "type": "object",
            "required": ["command", "entails", "left", "right"],
            "additionalProperties": False,
            "properties": {
                "command": {"const": "check"},
                "entails": {"type": "boolean"},
                "left": {"type": "string"},
                "right": {"type": "string"},
            },
        },
    ],
}
