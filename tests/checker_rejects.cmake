# Runs advocat-check on one malformed certificate and passes only when the
# checker rejects it cleanly: exit status 1 and a `REJECT <file>
# reason=<REASON>` line. An exception escaping the checker aborts it
# instead (exit 134, no verdict line).
#
#   cmake -DCHECKER=<advocat-check> -DPROOF=<file> -DREASON=<reason> \
#         -P tests/checker_rejects.cmake
execute_process(COMMAND "${CHECKER}" "${PROOF}"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
    "advocat-check exited '${status}', expected 1\n${out}${err}")
endif()
if(NOT out MATCHES "^REJECT [^\n]* reason=${REASON} ")
  message(FATAL_ERROR "expected a 'REJECT ... reason=${REASON}' line:\n${out}")
endif()
