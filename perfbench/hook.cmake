# Injected into the repo's root project() by run.py
# (-DCMAKE_PROJECT_afex_INCLUDE=perfbench/hook.cmake). The benchmark target
# is defined only once the root CMakeLists.txt has finished, so it links the
# same targets and sees the same AFEX_* configure results a user build has.
set(AFEX_PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${AFEX_PERFBENCH_DIR}/CMakeLists.txt")
